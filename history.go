package hwtwbg

// Activations returns the most recent detector activation reports (up
// to 128), oldest first, and the total number of activations ever run.
// Each report decomposes one activation into its phases; see
// ActivationReport.
func (m *Manager) Activations() (reports []ActivationReport, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total = m.stats.Runs
	reports = make([]ActivationReport, min(total, len(m.activations)))
	for i := range reports {
		reports[i] = m.activations[(total-len(reports)+i)%len(m.activations)]
	}
	return reports, total
}
