package kv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// rootGrants lists, in order, the modes the store's journal shows granted
// on the root: what the manager was asked, not what a Tx remembers.
func rootGrants(s *Store) []hwtwbg.Mode {
	var out []hwtwbg.Mode
	for _, r := range s.Manager().Journal().Snapshot() {
		if r.Kind == journal.KindGrant && r.RHash == journal.Hash(string(root)) {
			out = append(out, hwtwbg.Mode(r.Mode))
		}
	}
	return out
}

// TestRootLockedOncePerTxn: k accesses are k key requests plus one root
// request per mode that adds to the root mode already held.
func TestRootLockedOncePerTxn(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	before := s.Manager().MetricsSnapshot().Total
	tx := s.Begin()
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, _, err := tx.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"e", "f"} {
		if err := tx.Put(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := s.Manager().MetricsSnapshot().Total
	if fresh, conv := after.Fresh-before.Fresh, after.Conversions-before.Conversions; fresh != 4+2+1 || conv != 1 {
		t.Errorf("requests: %d fresh, %d conversions; want 7 (6 keys + root IS) and 1 (root IS→IX)", fresh, conv)
	}
	if got, want := rootGrants(s), []hwtwbg.Mode{hwtwbg.IS, hwtwbg.IX}; !reflect.DeepEqual(got, want) {
		t.Errorf("root grants in the journal = %v, want %v", got, want)
	}
}

// memoOp is one access path with the root mode it needs.
type memoOp struct {
	name string
	root hwtwbg.Mode
	do   func(ctx context.Context, tx *Tx, key string) error
}

var memoOps = []memoOp{
	{"Get", hwtwbg.IS, func(ctx context.Context, tx *Tx, key string) error { _, _, err := tx.Get(ctx, key); return err }},
	{"Put", hwtwbg.IX, func(ctx context.Context, tx *Tx, key string) error { return tx.Put(ctx, key, "v") }},
	{"Scan", hwtwbg.S, func(ctx context.Context, tx *Tx, _ string) error { _, err := tx.Scan(ctx); return err }},
	{"GetAll", hwtwbg.IS, func(ctx context.Context, tx *Tx, key string) error {
		_, err := tx.GetAll(ctx, key, key+"'")
		return err
	}},
	{"PutAll", hwtwbg.IX, func(ctx context.Context, tx *Tx, key string) error {
		return tx.PutAll(ctx, map[string]string{key: "v", key + "'": "v"})
	}},
}

// TestRootMemoConversions runs every ordered pair of access paths and
// checks after each step that the manager holds the Conv-join of the
// root modes asked so far, that the memo says exactly that, and that the
// manager was asked again only when the join moved.
func TestRootMemoConversions(t *testing.T) {
	ctx := context.Background()
	// Pairs whose outcome is written out rather than computed: final root
	// mode and how many root requests reach the manager.
	named := map[string]struct {
		mode  hwtwbg.Mode
		calls int
	}{
		"Put_then_Scan": {hwtwbg.SIX, 2},
		"Scan_then_Put": {hwtwbg.SIX, 2},
		"Scan_then_Get": {hwtwbg.S, 1},
		"Get_then_Put":  {hwtwbg.IX, 2},
		"Put_then_Get":  {hwtwbg.IX, 1},
		"Get_then_Get":  {hwtwbg.IS, 1},
	}
	for _, first := range memoOps {
		for _, second := range memoOps {
			name := first.name + "_then_" + second.name
			t.Run(name, func(t *testing.T) {
				s := open(t)
				tx := s.Begin()
				defer tx.Abort()
				join, calls := hwtwbg.NL, 0
				for i, op := range []memoOp{first, second} {
					if err := op.do(ctx, tx, "k"+strconv.Itoa(i)); err != nil {
						t.Fatal(err)
					}
					if next := hwtwbg.Conv(join, op.root); next != join {
						join, calls = next, calls+1
					}
					if held := tx.t.Mode(root); held != join || tx.root != held {
						t.Fatalf("after %s: manager holds %v on the root, memo says %v, want %v", op.name, held, tx.root, join)
					}
					if got := len(rootGrants(s)); got != calls {
						t.Fatalf("after %s: %d root requests reached the manager, want %d", op.name, got, calls)
					}
				}
				if want, ok := named[name]; ok && (join != want.mode || calls != want.calls) {
					t.Fatalf("ended with %v on the root after %d requests, want %v after %d", join, calls, want.mode, want.calls)
				}
			})
		}
	}
}

// TestCoveredRootStillChecksLiveness: Scan is the one access that makes
// no key request, so when its root request is elided nothing else would
// tell a finished transaction that it is reading without locks.
func TestCoveredRootStillChecksLiveness(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	tx := s.Begin()
	if _, err := tx.Scan(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Scan(ctx); !errors.Is(err, hwtwbg.ErrDone) {
		t.Fatalf("Scan after Commit = %v, want ErrDone", err)
	}
}

// namespaceKey generates keys that crowd the root's namespace: random
// concatenations of the fragments an escaping rule could get wrong.
type namespaceKey string

func (namespaceKey) Generate(r *rand.Rand, _ int) reflect.Value {
	frags := []string{"", "kv:/", "kv:", "kv", "/", ":", "x", "kv:/x", "kv:/kv:/x", "a/b", "\x00"}
	var b strings.Builder
	for n := r.Intn(4); n >= 0; n-- {
		b.WriteString(frags[r.Intn(len(frags))])
	}
	return reflect.ValueOf(namespaceKey(b.String()))
}

// TestKeyResourceInjective: distinct keys get distinct lock names and no
// key gets the root's.
func TestKeyResourceInjective(t *testing.T) {
	prop := func(a, b namespaceKey) bool {
		ra, rb := keyResource(string(a)), keyResource(string(b))
		return (ra == rb) == (a == b) && ra != root && rb != root
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	fixed := []namespaceKey{"", "kv:/", "kv:/x", "kv:/kv:/x", "kv:", "a/b", "/", "kv:/kv:/", "x"}
	for _, a := range fixed {
		for _, b := range fixed {
			if !prop(a, b) {
				t.Errorf("keys %q and %q: resources %q and %q", a, b, keyResource(string(a)), keyResource(string(b)))
			}
		}
	}
	for _, k := range []string{"k000123", "", "kv:", "a/b"} {
		if n := testing.AllocsPerRun(100, func() { _ = keyResource(k) }); n != 0 {
			t.Errorf("keyResource(%q) allocates %v times", k, n)
		}
	}
}

// TestRootNamespaceKeysAreOrdinaryKeys: a write lock on a key that looks
// like the root ("" named the root itself before the naming rule) leaves
// the rest of the store open — the second transaction commits while the
// first still holds its X lock.
func TestRootNamespaceKeysAreOrdinaryKeys(t *testing.T) {
	for _, key := range []string{"", "kv:/", "kv:/kv:/"} {
		t.Run(fmt.Sprintf("%q", key), func(t *testing.T) {
			s := open(t)
			ctx := context.Background()
			holder := s.Begin()
			defer holder.Abort()
			if err := holder.Put(ctx, key, "held"); err != nil {
				t.Fatal(err)
			}
			if got := holder.t.Mode(root); got != hwtwbg.IX {
				t.Fatalf("Put(%q) left %v on the root, want IX", key, got)
			}
			done := make(chan error, 1)
			go func() {
				done <- s.Update(ctx, func(tx *Tx) error {
					if _, _, err := tx.Get(ctx, "x"); err != nil {
						return err
					}
					return tx.Put(ctx, "y", "v")
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("a transaction on other keys is blocked behind X on key %q", key)
			}
			if err := holder.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := s.View(ctx, func(tx *Tx) error {
				if v, ok, err := tx.Get(ctx, key); err != nil || !ok || v != "held" {
					return fmt.Errorf("Get(%q) = %q, %v, %v", key, v, ok, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKVTxnAllocs pins what a transaction through View/Update allocates
// on a warm store: nothing. Update takes its Tx from a pool with the
// write set cleared but kept, and a buffered write is stored by value.
// The wall-clock-seeded rand.Rand that Update used to build per call was
// one allocation of 5.4 KB, so no RNG state fits under these budgets.
func TestKVTxnAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a share of what it is given")
	}
	s := Open(Options{DetectEvery: time.Hour})
	defer s.Close()
	ctx := context.Background()
	put := func(tx *Tx) error { return tx.Put(ctx, "k", "v") }
	get := func(tx *Tx) error { _, _, err := tx.Get(ctx, "k"); return err }
	if err := s.Update(ctx, put); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		run    func(context.Context, func(*Tx) error) error
		fn     func(*Tx) error
		budget float64
	}{
		{"View+Get", s.View, get, 0},
		{"Update+Put", s.Update, put, 0},
	} {
		n := testing.AllocsPerRun(200, func() {
			if err := c.run(ctx, c.fn); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.name, n)
		if n > c.budget {
			t.Errorf("%s allocates %v times per transaction, budget %v", c.name, n, c.budget)
		}
	}
}

// TestBeginTxNeverPooled: a Tx from Store.Begin is the caller's, so it
// must never enter the pool Update recycles through. After its commit it
// keeps reporting ErrDone however many pooled transactions the store
// runs, which it would not if it had been handed out again.
func TestBeginTxNeverPooled(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	tx := s.Begin()
	if err := tx.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := s.Update(ctx, func(tx *Tx) error { return tx.Put(ctx, "k", "w") }); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Err(); !errors.Is(err, hwtwbg.ErrDone) {
		t.Fatalf("Begin's Tx after 1000 Updates: Err() = %v, want ErrDone", err)
	}
}

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// heldSet is a transaction's lock footprint: resource → granted mode.
func heldSet(t *hwtwbg.Txn) map[hwtwbg.ResourceID]hwtwbg.Mode {
	out := map[hwtwbg.ResourceID]hwtwbg.Mode{}
	for _, r := range t.Held() {
		out[r] = t.Mode(r)
	}
	return out
}

// TestLockFootprintUnchanged replays 2000 seeded transactions of mixed
// accesses through the store and, side by side, through a reference that
// locks as the store did before the root memo and the naming rule: the
// root requested on every access, every key named "kv:/"+key. Just
// before each commit the two hold the same (resource, mode) pairs, once
// the reference's names are mapped through keyResource — same locks,
// fewer calls.
func TestLockFootprintUnchanged(t *testing.T) {
	s := open(t)
	ref := hwtwbg.Open(hwtwbg.Options{Period: time.Hour})
	defer ref.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	// No "": the old naming made it the root itself (the bug
	// TestRootNamespaceKeysAreOrdinaryKeys covers), so there the footprints
	// differ on purpose.
	keys := []string{"kv:/", "kv:/a", "a", "b", "c", "d", "e", "f", "g", "h", "a/b"}
	pick := func() string { return keys[rng.Intn(len(keys))] }
	refLock := func(rt *hwtwbg.Txn, r hwtwbg.ResourceID, m hwtwbg.Mode) {
		t.Helper()
		if err := rt.Lock(ctx, r, m); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 2000; n++ {
		tx, rt := s.Begin(), ref.Begin()
		written := map[string]bool{} // keys the store serves from the write buffer, lock-free
		var script []string
		for ops := 1 + rng.Intn(6); ops > 0; ops-- {
			var err error
			switch op := rng.Intn(12); {
			case op < 4:
				k := pick()
				script = append(script, "Get "+strconv.Quote(k))
				_, _, err = tx.Get(ctx, k)
				if !written[k] {
					refLock(rt, root, hwtwbg.IS)
					refLock(rt, "kv:/"+hwtwbg.ResourceID(k), hwtwbg.S)
				}
			case op < 7:
				k := pick()
				script = append(script, "Put "+strconv.Quote(k))
				if op == 6 {
					err = tx.Delete(ctx, k)
				} else {
					err = tx.Put(ctx, k, "v")
				}
				refLock(rt, root, hwtwbg.IX)
				refLock(rt, "kv:/"+hwtwbg.ResourceID(k), hwtwbg.X)
				written[k] = true
			case op < 8:
				script = append(script, "Scan")
				_, err = tx.Scan(ctx)
				refLock(rt, root, hwtwbg.S)
			case op < 10:
				ks := []string{pick(), pick(), pick()}
				script = append(script, fmt.Sprintf("GetAll %q", ks))
				_, err = tx.GetAll(ctx, ks...)
				refLock(rt, root, hwtwbg.IS)
				for _, k := range ks {
					if !written[k] {
						refLock(rt, "kv:/"+hwtwbg.ResourceID(k), hwtwbg.S)
					}
				}
			default:
				batch := map[string]string{pick(): "v", pick(): "v"}
				script = append(script, fmt.Sprintf("PutAll %v", batch))
				err = tx.PutAll(ctx, batch)
				refLock(rt, root, hwtwbg.IX)
				for k := range batch {
					refLock(rt, "kv:/"+hwtwbg.ResourceID(k), hwtwbg.X)
					written[k] = true
				}
			}
			if err != nil {
				t.Fatalf("txn %d %v: %v", n, script, err)
			}
		}
		want := map[hwtwbg.ResourceID]hwtwbg.Mode{}
		for r, m := range heldSet(rt) {
			if r != root {
				r = keyResource(strings.TrimPrefix(string(r), "kv:/"))
			}
			want[r] = m
		}
		if got := heldSet(tx.t); !reflect.DeepEqual(got, want) {
			t.Fatalf("txn %d %v holds\n  %v\nthe every-access reference holds\n  %v", n, script, sorted(got), sorted(want))
		}
		if tx.root != tx.t.Mode(root) {
			t.Fatalf("txn %d %v: memo %v, manager %v", n, script, tx.root, tx.t.Mode(root))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rt.Abort()
	}
}

func sorted(m map[hwtwbg.ResourceID]hwtwbg.Mode) []string {
	out := make([]string, 0, len(m))
	for r, mode := range m {
		out = append(out, fmt.Sprintf("%q:%v", r, mode))
	}
	sort.Strings(out)
	return out
}
