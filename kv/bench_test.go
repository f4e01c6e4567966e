package kv

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func BenchmarkGetPut(b *testing.B) {
	s := Open(Options{DetectEvery: 10 * time.Millisecond})
	defer s.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		key := "k" + strconv.Itoa(i%64)
		if _, _, err := tx.Get(ctx, key); err != nil {
			b.Fatal(err)
		}
		if err := tx.Put(ctx, key, "v"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewGet and BenchmarkUpdatePut go through View/Update, so they
// pay for the restart loop around the transaction as a caller does; the
// benchmarks that Begin and Commit by hand never ran it.
func BenchmarkViewGet(b *testing.B) {
	benchRetryLoop(b, func(ctx context.Context, s *Store, key string) error {
		return s.View(ctx, func(tx *Tx) error { _, _, err := tx.Get(ctx, key); return err })
	})
}

func BenchmarkUpdatePut(b *testing.B) {
	benchRetryLoop(b, func(ctx context.Context, s *Store, key string) error {
		return s.Update(ctx, func(tx *Tx) error { return tx.Put(ctx, key, "v") })
	})
}

func benchRetryLoop(b *testing.B, txn func(ctx context.Context, s *Store, key string) error) {
	s := Open(Options{DetectEvery: 10 * time.Millisecond})
	defer s.Close()
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
		if err := s.Update(ctx, func(tx *Tx) error { return tx.Put(ctx, keys[i], "v") }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := txn(ctx, s, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetPutParallel measures read-modify-write transactions under
// b.RunParallel over a key space wide enough that conflicts are rare —
// the workload the sharded lock table parallelizes across cores.
func BenchmarkGetPutParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := Open(Options{DetectEvery: 10 * time.Millisecond, Shards: shards})
			defer s.Close()
			ctx := context.Background()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					key := "k" + strconv.Itoa(rng.Intn(16*1024))
					err := s.Update(ctx, func(tx *Tx) error {
						if _, _, err := tx.Get(ctx, key); err != nil {
							return err
						}
						return tx.Put(ctx, key, "v")
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkUpdateContended(b *testing.B) {
	s := Open(Options{DetectEvery: time.Millisecond})
	defer s.Close()
	ctx := context.Background()
	const workers = 4
	var wg sync.WaitGroup
	per := b.N/workers + 1
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("c%d", rng.Intn(4))
				err := s.Update(ctx, func(tx *Tx) error {
					v, _, err := tx.Get(ctx, key)
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(v)
					return tx.Put(ctx, key, strconv.Itoa(n+1))
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

func BenchmarkScan(b *testing.B) {
	s := Open(Options{})
	defer s.Close()
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error {
		for i := 0; i < 256; i++ {
			if err := tx.Put(ctx, fmt.Sprintf("k%03d", i), "v"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		kvs, err := tx.Scan(ctx)
		if err != nil || len(kvs) != 256 {
			b.Fatalf("scan: %d, %v", len(kvs), err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
