//go:build !invariants

package hwtwbg

import "hwtwbg/internal/detect"

// Without the `invariants` build tag the STW oracle runs unaudited,
// like the production detector (see audit_off.go).

func (m *Manager) auditPreSTW() *auditState { return nil }

func (m *Manager) auditPostSTW(*auditState, detect.Result) {}
