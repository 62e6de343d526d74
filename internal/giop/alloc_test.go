//go:build !race

package giop

import (
	"testing"

	"livedev/internal/cdr"
)

// TestAllocs_ReplyWithoutContexts pins that the service context list costs
// the replies that do not carry one nothing: an empty list is written
// straight into the pooled encoder and read back as a nil slice. (The race
// detector makes sync.Pool drop Puts, hence the build tag.)
func TestAllocs_ReplyWithoutContexts(t *testing.T) {
	result := func(e *cdr.Encoder) error { e.WriteLong(42); return nil }
	allocs := testing.AllocsPerRun(200, func() {
		msg, err := EncodeReply(cdr.BigEndian, ReplyHeader{RequestID: 1, Status: ReplyNoException}, result)
		if err != nil {
			t.Fatal(err)
		}
		if h, _, err := DecodeReply(msg); err != nil || h.Contexts != nil {
			t.Fatalf("decoded %+v, %v", h, err)
		}
		msg.Recycle()
	})
	if allocs > 1 { // the decoder DecodeReply returns
		t.Errorf("a reply without service contexts allocates %.1f objects/op, budget is 1", allocs)
	}
}
