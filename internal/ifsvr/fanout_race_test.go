package ifsvr

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestStreamFanoutSharedBuffersByteIdentical is the shared-marshaling
// storm: N watchers hold streams while a publisher commits a burst of
// versions. Every commit is marshaled once and the same []byte is written
// to every connection, so (a) for each epoch, every connection must
// observe the identical event — same version, same content, same epoch —
// and (b) no buffer may be mutated after it was handed out: a
// reuse-after-send would show up as torn or mismatched payloads across
// connections (and as a data race under -race, which this test is run
// with in CI).
func TestStreamFanoutSharedBuffersByteIdentical(t *testing.T) {
	watchers, edits := 1000, 30
	if testing.Short() {
		watchers, edits = 100, 10
	}
	st, url := startStreamServer(t, StoreConfig{})
	const path = "/wsdl/S.wsdl"
	st.PublishVersioned(path, "text/xml", "<v1/>", 1)

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = watchers + 4
	hc := &http.Client{Transport: tr}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Each watcher records, per epoch, the rendered event it observed.
	type obs struct {
		mu     sync.Mutex
		events map[uint64]string
	}
	final := uint64(1 + edits)
	all := make([]obs, watchers)
	for w := 0; w < watchers; w++ {
		all[w].events = make(map[uint64]string, edits+1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = WatchStream(ctx, hc, url, 0, func(ev StreamEvent) {
					key := fmt.Sprintf("v%d|dv%d|e%d|%s|%s",
						ev.Doc.Version, ev.Doc.DescriptorVersion, ev.Doc.Epoch, ev.Doc.ContentType, ev.Doc.Content)
					all[w].mu.Lock()
					if prev, dup := all[w].events[ev.Doc.Epoch]; dup && prev != key {
						t.Errorf("watcher %d: epoch %d delivered twice with different payloads:\n%s\n%s", w, ev.Doc.Epoch, prev, key)
					}
					all[w].events[ev.Doc.Epoch] = key
					all[w].mu.Unlock()
				})
			}
		}(w)
	}

	// The storm, committed while watchers connect and stream concurrently.
	for i := 2; i <= int(final); i++ {
		st.PublishVersioned(path, "text/xml", fmt.Sprintf("<v%d/>", i), uint64(i))
		time.Sleep(time.Millisecond)
	}

	// Convergence: every watcher has observed the final version.
	deadline := time.Now().Add(60 * time.Second)
	for w := 0; w < watchers; w++ {
		for {
			all[w].mu.Lock()
			_, done := all[w].events[final] // epoch == version here: one batch per publish
			all[w].mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("watcher %d never observed the final version", w)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	wg.Wait()

	// Cross-connection byte-identity: for each epoch, every watcher that
	// observed it observed exactly the same rendering, and that rendering
	// matches the committed content (no reuse-after-send corruption).
	for epoch := uint64(1); epoch <= final; epoch++ {
		want := fmt.Sprintf("v%d|dv%d|e%d|text/xml|<v%d/>", epoch, epoch, epoch, epoch)
		for w := 0; w < watchers; w++ {
			all[w].mu.Lock()
			got, ok := all[w].events[epoch]
			all[w].mu.Unlock()
			if !ok {
				continue // connected mid-storm; catch-up starts at its epoch
			}
			if got != want {
				t.Fatalf("watcher %d epoch %d observed %q, want %q", w, epoch, got, want)
			}
		}
	}
}
