// Package script implements a small line-oriented scenario language for
// describing lock-table histories — the situations the paper prints in
// its examples — so they can be replayed by tests and the command-line
// scenario tool (cmd/lockstep).
//
// Syntax (one statement per line; '#' starts a comment):
//
//	lock   T1 R1 IX    request that must be granted immediately
//	wait   T3 R1 S     request that must block
//	req    T5 R1 IX    request with no expectation
//	commit T1          commit (release all locks)
//	abort  T2          abort
//	cost   T3 1.5      set the victim cost of T3
//	detect             run one periodic detection-resolution activation
//	dump               print the lock table in the paper's notation
//	graph              print the H/W-TWBG edges
//
// Transactions are written T<n>; resources are arbitrary words; modes
// are the paper's spellings (IS, IX, S, SIX, X).
package script

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// Op is a statement kind.
type Op uint8

// Statement kinds.
const (
	OpLock Op = iota // request, expect grant
	OpWait           // request, expect block
	OpReq            // request, no expectation
	OpCommit
	OpAbort
	OpCost
	OpDetect
	OpDump
	OpGraph
)

var opNames = map[Op]string{
	OpLock: "lock", OpWait: "wait", OpReq: "req", OpCommit: "commit",
	OpAbort: "abort", OpCost: "cost", OpDetect: "detect", OpDump: "dump",
	OpGraph: "graph",
}

// String returns the statement keyword.
func (o Op) String() string { return opNames[o] }

// Stmt is one parsed statement.
type Stmt struct {
	Op   Op
	Txn  table.TxnID
	Res  table.ResourceID
	Mode lock.Mode
	Cost float64
	Line int
}

// String reassembles the statement's source form.
func (s Stmt) String() string {
	switch s.Op {
	case OpLock, OpWait, OpReq:
		return fmt.Sprintf("%v %v %s %v", s.Op, s.Txn, string(s.Res), s.Mode)
	case OpCommit, OpAbort:
		return fmt.Sprintf("%v %v", s.Op, s.Txn)
	case OpCost:
		return fmt.Sprintf("%v %v %g", s.Op, s.Txn, s.Cost)
	default:
		return s.Op.String()
	}
}

// Parse reads a scenario.
func Parse(r io.Reader) ([]Stmt, error) {
	var out []Stmt
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		st, err := parseStmt(fields)
		if err != nil {
			return nil, fmt.Errorf("script: line %d: %w", lineNo, err)
		}
		st.Line = lineNo
		out = append(out, st)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("script: %w", err)
	}
	return out, nil
}

// ParseString parses a scenario held in a string.
func ParseString(s string) ([]Stmt, error) { return Parse(strings.NewReader(s)) }

func parseStmt(fields []string) (Stmt, error) {
	var st Stmt
	switch fields[0] {
	case "lock", "wait", "req":
		switch fields[0] {
		case "lock":
			st.Op = OpLock
		case "wait":
			st.Op = OpWait
		default:
			st.Op = OpReq
		}
		if len(fields) != 4 {
			return st, fmt.Errorf("%s wants: %s T<n> <resource> <mode>", fields[0], fields[0])
		}
		txn, err := parseTxn(fields[1])
		if err != nil {
			return st, err
		}
		mode, err := lock.Parse(fields[3])
		if err != nil {
			return st, err
		}
		st.Txn, st.Res, st.Mode = txn, table.ResourceID(fields[2]), mode
	case "commit", "abort":
		if fields[0] == "commit" {
			st.Op = OpCommit
		} else {
			st.Op = OpAbort
		}
		if len(fields) != 2 {
			return st, fmt.Errorf("%s wants: %s T<n>", fields[0], fields[0])
		}
		txn, err := parseTxn(fields[1])
		if err != nil {
			return st, err
		}
		st.Txn = txn
	case "cost":
		st.Op = OpCost
		if len(fields) != 3 {
			return st, fmt.Errorf("cost wants: cost T<n> <value>")
		}
		txn, err := parseTxn(fields[1])
		if err != nil {
			return st, err
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return st, fmt.Errorf("bad cost %q", fields[2])
		}
		st.Txn, st.Cost = txn, v
	case "detect":
		st.Op = OpDetect
	case "dump":
		st.Op = OpDump
	case "graph":
		st.Op = OpGraph
	default:
		return st, fmt.Errorf("unknown statement %q", fields[0])
	}
	if len(fields) > 1 && (st.Op == OpDetect || st.Op == OpDump || st.Op == OpGraph) {
		return st, fmt.Errorf("%s takes no arguments", fields[0])
	}
	return st, nil
}

func parseTxn(s string) (table.TxnID, error) {
	if !strings.HasPrefix(s, "T") {
		return 0, fmt.Errorf("bad transaction %q (want T<n>)", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad transaction %q (want T<n>)", s)
	}
	return table.TxnID(n), nil
}
