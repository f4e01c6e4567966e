package lockservice

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg"
)

func BenchmarkRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{Period: 50 * time.Millisecond})
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockCommitParallel runs the begin/lock/commit round trip
// from many concurrent connections over a wide key space, so server-
// side lock work spreads across shards.
func BenchmarkLockCommitParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := Serve(ln, hwtwbg.Options{Period: 50 * time.Millisecond, Shards: shards})
			defer srv.Close()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c, err := Dial(ln.Addr().String())
				if err != nil {
					b.Error(err)
					return
				}
				defer c.Close()
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					if _, err := c.Begin(); err != nil {
						b.Error(err)
						return
					}
					if err := c.Lock(fmt.Sprintf("k%05d", rng.Intn(16*1024)), hwtwbg.X); err != nil {
						b.Error(err)
						return
					}
					if err := c.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkLockCommitCycle(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{Period: 50 * time.Millisecond})
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Begin(); err != nil {
			b.Fatal(err)
		}
		if err := c.Lock("bench", hwtwbg.X); err != nil {
			b.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
