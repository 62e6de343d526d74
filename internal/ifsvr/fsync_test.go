package ifsvr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fsyncGate holds every WAL fsync of one log at its start until the test
// opens the gate, through the log's fsync seam.
type fsyncGate struct {
	entered chan struct{} // one send per fsync that reached the gate
	release chan struct{} // closed by open: held fsyncs go on
	ran     chan error    // the outcome of each real fsync, once it ran
	once    sync.Once
}

// holdFsyncs installs a gate on p's fsync seam. Call it before the log's
// first Sync, from the goroutine that then starts the committers. The two
// report channels hold more sends than the fsyncs one test starts; a send
// that finds one full is dropped rather than stall the log.
func holdFsyncs(p *filePersistence) *fsyncGate {
	g := &fsyncGate{entered: make(chan struct{}, 16), release: make(chan struct{}), ran: make(chan error, 16)}
	p.fsync = func(f *os.File) error {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
		err := walSync(f)
		select {
		case g.ran <- err:
		default:
		}
		return err
	}
	return g
}

// open lets every held and later fsync run.
func (g *fsyncGate) open() { g.once.Do(func() { close(g.release) }) }

// awaitHeld waits until an fsync is held at the gate.
func (g *fsyncGate) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync reached the gate")
	}
}

// gateEvents is one committed version of path, as a publication logs it.
func gateEvents(path string) []StoreEvent {
	d := Document{Content: "<v/>", ContentType: "text/xml", Version: 1, Epoch: 1}
	return []StoreEvent{{Path: path, Doc: d, Payload: encodeEventPayload(path, d)}}
}

// TestCloseWaitsForInflightFsync: while a WAL fsync is held, Close must not
// close the file under it — the held fsync, once let go, runs on an open
// file and succeeds, and Close returns only after it. A committer parked
// behind that fsync, its record appended after the fsync began, is
// answered ErrStoreClosed at once, without waiting for the fsync: its
// record is not known to be durable, and the closing log will not start
// another fsync for it. The committer whose record the held fsync covers
// is answered too (nil or ErrStoreClosed: neither over-claims).
func TestCloseWaitsForInflightFsync(t *testing.T) {
	p, err := openFilePersistence(StoreConfig{Dir: t.TempDir(), Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}
	gate := holdFsyncs(p)
	defer gate.open()

	lsnA, err := p.Append(gateEvents("/wsdl/A.wsdl"))
	if err != nil {
		t.Fatal(err)
	}
	syncA := make(chan error, 1)
	go func() { syncA <- p.Sync(lsnA) }()
	gate.awaitHeld(t)

	// The append runs apart, under a deadline: a log that fsyncs under
	// p.mu would hold it behind the gate for good.
	var lsnB uint64
	appended := make(chan error, 1)
	go func() {
		var err error
		lsnB, err = p.Append(gateEvents("/wsdl/B.wsdl"))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an Append waited out the held fsync")
	}
	syncB := make(chan error, 1)
	go func() { syncB <- p.Sync(lsnB) }()
	select {
	case err := <-syncB:
		t.Fatalf("a commit appended behind the held fsync was answered %v before Close", err)
	case <-time.After(20 * time.Millisecond):
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-syncB:
		if !errors.Is(err, ErrStoreClosed) {
			t.Errorf("the parked commit's Sync = %v, want ErrStoreClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked commit's Sync did not return on Close")
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while an fsync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	gate.open()
	if err := <-gate.ran; err != nil {
		t.Errorf("the held fsync failed once let go: %v (Close closed the WAL under it)", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the fsync")
	}
	select {
	case err := <-syncA:
		if err != nil && !errors.Is(err, ErrStoreClosed) {
			t.Errorf("the covered commit's Sync = %v, want nil or ErrStoreClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the covered commit's Sync did not return")
	}
}

// TestReadersNeverWaitOnFsync: while a commit's WAL fsync is held, under
// the durable -sync policy, a document read, the store's counters
// and a held per-path stream's delivery of an earlier commit each complete
// within a second. No reader may wait out a flush.
func TestReadersNeverWaitOnFsync(t *testing.T) {
	for _, spelling := range []string{"group"} {
		t.Run(spelling, func(t *testing.T) {
			policy, err := ParseSyncPolicy(spelling)
			if err != nil {
				t.Fatal(err)
			}
			st, url := startStreamServer(t, StoreConfig{Dir: t.TempDir(), Sync: policy})
			st.PublishVersioned("/wsdl/S.wsdl", "text/xml", "<v1/>", 1)
			gate := holdFsyncs(st.persist)
			t.Cleanup(gate.open) // runs before the store closes

			published := make(chan uint64, 1)
			go func() { published <- st.Publish("/wsdl/P.wsdl", "text/xml", "<p/>") }()
			gate.awaitHeld(t)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			readers := map[string]func() error{
				"Get": func() error {
					if d, err := st.Get("/wsdl/S.wsdl"); err != nil || d.Version != 1 {
						return fmt.Errorf("got v%d, %v; want v1", d.Version, err)
					}
					return nil
				},
				"Stats": func() error {
					if d := st.Stats().Durability; d == nil || d.LastLSN != 2 {
						return fmt.Errorf("durability %+v, want last lsn 2", d)
					}
					return nil
				},
				"a held stream": func() error {
					var got uint64
					sctx, stop := context.WithCancel(ctx)
					defer stop()
					_ = WatchStream(sctx, nil, url, 0, func(ev StreamEvent) {
						got = ev.Doc.Version
						stop()
					})
					if got != 1 {
						return fmt.Errorf("delivered v%d, want v1", got)
					}
					return nil
				},
			}
			results := make(map[string]chan error, len(readers))
			for name, read := range readers {
				res := make(chan error, 1)
				results[name] = res
				go func() { res <- read() }()
			}
			deadline := time.After(time.Second)
			var late []string
			for name, res := range results {
				select {
				case err := <-res:
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
					results[name] = nil
				case <-deadline:
					late = append(late, name)
					deadline = time.After(0)
				}
			}
			if len(late) > 0 {
				t.Errorf("%v waited on the held fsync", late)
			}

			gate.open()
			if v := <-published; v != 1 {
				t.Errorf("the held commit acked v%d, want v1", v)
			}
			for _, res := range results {
				if res != nil {
					<-res // let a late reader finish before the store closes
				}
			}
		})
	}
}

// BenchmarkSyncStorm is a publisher storm on a durable store: each of 1, 8
// and 64 publishers commits to its own path until b.N commits are acked,
// under the durable -sync policy. ns/op is the wall time per acked
// commit, and fsyncs/commit the share of commits that paid a WAL fsync.
// Cadence snapshots are pushed out of the run, so every ack waits on the
// WAL's own fsync.
func BenchmarkSyncStorm(b *testing.B) {
	for _, spelling := range []string{"group"} {
		policy, err := ParseSyncPolicy(spelling)
		if err != nil {
			b.Fatal(err)
		}
		for _, publishers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/publishers=%d", spelling, publishers), func(b *testing.B) {
				st, err := OpenStore(StoreConfig{Dir: b.TempDir(), Sync: policy, SnapshotEvery: 1 << 30})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				var left atomic.Int64
				left.Store(int64(b.N))
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := range publishers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						path := fmt.Sprintf("/wsdl/P%d.wsdl", w)
						for left.Add(-1) >= 0 {
							st.Publish(path, "text/xml", "<v/>")
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				d := st.Stats().Durability
				if d.DurableLSN < d.LastLSN {
					b.Fatalf("durable lsn %d behind last lsn %d after every ack", d.DurableLSN, d.LastLSN)
				}
				b.ReportMetric(float64(d.Fsyncs)/float64(b.N), "fsyncs/commit")
			})
		}
	}
}
