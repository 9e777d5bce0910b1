package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMixedWorkload is the race-mode stress test: many goroutines
// mix Put, Get (full, delta, and unchanged), and replica Pulls across keys
// that land on different shards, on both backends. Run with -race it shakes
// out lock-ordering and snapshot bugs in the sharded store.
func TestConcurrentMixedWorkload(t *testing.T) {
	backends := map[string]func(t *testing.T) *HomeStore{
		"mem": func(t *testing.T) *HomeStore {
			return NewHomeStore(Options{Retain: 4, BlockSize: 64, Shards: 8})
		},
		"log": func(t *testing.T) *HomeStore {
			return mustOpenDSN(t, "log:"+t.TempDir(), Options{Retain: 4, BlockSize: 64, Shards: 8})
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()

			const keys = 8
			const writers = 4
			const readers = 8
			const rounds = 50

			key := func(i int) string { return fmt.Sprintf("obj-%d", i) }
			for i := 0; i < keys; i++ {
				mustPut(t, s, key(i), bytes.Repeat([]byte{byte(i)}, 2048))
			}

			var wg sync.WaitGroup
			var failed atomic.Bool
			fail := func(format string, args ...any) {
				if failed.CompareAndSwap(false, true) {
					t.Errorf(format, args...)
				}
			}

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						k := key((w + r) % keys)
						data := bytes.Repeat([]byte{byte(w)}, 2048)
						data[(r*17)%len(data)] ^= 0xff
						if _, err := s.Put(k, data); err != nil {
							fail("put %s: %v", k, err)
							return
						}
					}
				}(w)
			}

			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rep := NewReplica()
					for r := 0; r < rounds; r++ {
						k := key((g * 3) % keys)
						switch r % 3 {
						case 0: // replica sync: full first, deltas after
							if err := rep.Pull(s, k); err != nil {
								fail("pull %s: %v", k, err)
								return
							}
							cur, err := s.Current(k)
							if err != nil {
								fail("current %s: %v", k, err)
								return
							}
							// The replica holds SOME complete version;
							// writers may already have moved past it.
							if rep.VersionOf(k) > cur.Num {
								fail("replica ahead of store on %s", k)
								return
							}
						case 1: // stale read forcing the delta/full decision
							cur, err := s.Current(k)
							if err != nil {
								fail("current %s: %v", k, err)
								return
							}
							base := uint64(0)
							if cur.Num > 1 {
								base = cur.Num - 1
							}
							if _, err := s.Get(k, base); err != nil {
								fail("get %s@%d: %v", k, base, err)
								return
							}
						default: // unchanged fast path
							cur, err := s.Current(k)
							if err != nil {
								fail("current %s: %v", k, err)
								return
							}
							reply, err := s.Get(k, cur.Num)
							if err != nil {
								fail("get %s@head: %v", k, err)
								return
							}
							// Head may have advanced between the two calls,
							// but a reply at exactly our base must say so.
							if reply.Version == cur.Num && !reply.Unchanged {
								fail("same-version reply for %s not marked unchanged", k)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()

			// Every key still serves a coherent full object.
			for i := 0; i < keys; i++ {
				cur, err := s.Current(key(i))
				if err != nil {
					t.Fatalf("post-stress current %s: %v", key(i), err)
				}
				if len(cur.Data) != 2048 {
					t.Fatalf("post-stress %s has %d bytes", key(i), len(cur.Data))
				}
			}
		})
	}
}

// globalMutexStore emulates the pre-refactor design for the benchmark
// baseline: one mutex guards the whole store, held across delta
// computation, so every reader waits on every other request.
type globalMutexStore struct {
	mu sync.Mutex
	s  *HomeStore
}

func (g *globalMutexStore) Put(key string, data []byte) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.Put(key, data)
}

func (g *globalMutexStore) Get(key string, have uint64) (*Reply, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.Get(key, have)
}

func (g *globalMutexStore) Current(key string) (Version, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.Current(key)
}

// benchStore is the surface the benchmark drives.
type benchStore interface {
	Put(key string, data []byte) (uint64, error)
	Get(key string, have uint64) (*Reply, error)
	Current(key string) (Version, error)
}

// BenchmarkStoreConcurrent measures the latency the re-layered store was
// built to remove: cheap Gets (unchanged replies and cached deltas) no
// longer queue behind a writer churning an expensive key. A background
// goroutine — not counted in b.N — keeps Putting a large object and
// requesting stale deltas of it; the measured parallel loop does cheap
// Gets on other keys. Under the old global mutex those Gets serialize
// behind every delta computation; the sharded store lets them through.
func BenchmarkStoreConcurrent(b *testing.B) {
	const churnKey = "churn/large"
	const churnSize = 1 << 20
	const hotKeys = 8

	seed := func(s benchStore) []uint64 {
		heads := make([]uint64, hotKeys)
		for i := 0; i < hotKeys; i++ {
			v, err := s.Put(fmt.Sprintf("hot-%d", i), bytes.Repeat([]byte{byte(i)}, 1024))
			if err != nil {
				b.Fatal(err)
			}
			heads[i] = v
		}
		base := bytes.Repeat([]byte("abcdefgh"), churnSize/8)
		if _, err := s.Put(churnKey, base); err != nil {
			b.Fatal(err)
		}
		return heads
	}

	run := func(b *testing.B, s benchStore) {
		heads := seed(s)
		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			data := bytes.Repeat([]byte("abcdefgh"), churnSize/8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				data = append([]byte(nil), data...)
				data[(i*8191)%len(data)] ^= 0xff
				v, err := s.Put(churnKey, data)
				if err != nil {
					return
				}
				if v > 1 {
					// Stale read: forces a full delta computation over the
					// 1 MiB object (cache was just invalidated by the Put).
					if _, err := s.Get(churnKey, v-1); err != nil {
						return
					}
				}
			}
		}()

		b.ResetTimer()
		b.SetParallelism(8) // 8 reader goroutines per GOMAXPROCS core
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := i % hotKeys
				reply, err := s.Get(fmt.Sprintf("hot-%d", k), heads[k])
				if err != nil {
					b.Error(err)
					return
				}
				if !reply.Unchanged {
					b.Error("hot key moved")
					return
				}
				i++
			}
		})
		b.StopTimer()
		close(stop)
		churn.Wait()
	}

	opts := func(shards int) Options {
		return Options{Retain: 2, BlockSize: 64, Shards: shards}
	}

	b.Run("baseline-mutex", func(b *testing.B) {
		run(b, &globalMutexStore{s: NewHomeStore(opts(1))})
	})
	b.Run("mem-shards-1", func(b *testing.B) {
		run(b, NewHomeStore(opts(1)))
	})
	b.Run("mem-shards-8", func(b *testing.B) {
		run(b, NewHomeStore(opts(8)))
	})
	b.Run("log-shards-1", func(b *testing.B) {
		s := mustOpenDSN(b, "log:"+b.TempDir(), opts(1))
		defer s.Close()
		run(b, s)
	})
	b.Run("log-shards-8", func(b *testing.B) {
		s := mustOpenDSN(b, "log:"+b.TempDir(), opts(8))
		defer s.Close()
		run(b, s)
	})
}
