package core_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"livedev/internal/cde"
	"livedev/internal/clock"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
)

// Figures 7 and 8 on the production code: a real Manager, every binding
// and a real cde.Client, one stale call per cell. The client holds op, the
// server developer has renamed it op2, and the call races the publication
// of the new interface description and the client's stub update.
//
// Publication points are the stability timer firing on the fake clock:
//
//	(1) before the call is resolved;
//	(2) after the server refused the call and before it replies, from
//	    ClassServer's stale hook;
//	(3) after CallContext has returned;
//	(4) after update (iii).
//
// Update points are RefreshContext calls:
//
//	(i)   from the stale hook, before publication (2): the call is in flight;
//	(ii)  from the debugger prompt: after the reply, before CallContext
//	      returns;
//	(iii) after publication (3);
//	(iv)  after publication (4).
//
// A cell is consistent when CallContext returns the stale error with the
// rename already in the client's view: the developer can see the change
// that explains the error.
//
// Figure 7 is active publishing: Config.ActivePublishingOnly on the
// server, and on the client a document gate that serves reads only at the
// cell's update point, so the client's reactive refresh reads nothing.
// Figure 8 is the whole protocol: Section 5.7's forced publication and
// Section 6's reactive update.

// figure7 is the paper's Figure 7: publication points (1)–(3) down, update
// points (i)–(iii) across, ✓ where the cell is consistent.
var figure7 = []string{
	"✓✓✗",
	"✗✓✗",
	"✗✗✗",
}

// figure8 is the paper's Figure 8, publication points (1)–(4) down, update
// points (i)–(iv) across.
var figure8 = []string{
	"✓✓✓✓",
	"✓✓✓✓",
	"✓✓✓✓",
	"✓✓✓✓",
}

var updatePoints = []string{"", "i", "ii", "iii", "iv"}

// figureRow is one cell on one binding.
type figureRow struct {
	binding  string
	reactive bool // Figure 8; Figure 7 publishes actively only
	pub, upd int  // publication point 1–4, update point 1–4 for (i)–(iv)
	expect   figureExpect
}

type figureExpect struct {
	// consistent: the stale error returns with op2, and not op, in the
	// client's view; otherwise the view still shows op and not op2.
	consistent bool
	// forced is PublisherStats.Forced after the call: a forced
	// publication waits only when the timer is still armed as the call is
	// refused, and there is none under active publishing.
	forced uint64
}

// figureRows reads a figure's matrix as rows for binding.
func figureRows(binding string, reactive bool, matrix []string) []figureRow {
	var rows []figureRow
	for pub, cells := range matrix {
		for upd, cell := range []rune(cells) {
			row := figureRow{binding: binding, reactive: reactive, pub: pub + 1, upd: upd + 1}
			row.expect.consistent = cell == '✓'
			if reactive && row.pub >= 3 {
				row.expect.forced = 1
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func TestFigure7Matrix(t *testing.T) { testFigure(t, "Figure 7 (active publishing)", false, figure7) }
func TestFigure8Matrix(t *testing.T) { testFigure(t, "Figure 8 (reactive publishing)", true, figure8) }

func testFigure(t *testing.T, title string, reactive bool, matrix []string) {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
	cde.RegisterConnector(jsonb.Connector())
	cde.RegisterConnector(h2b.Connector())
	for _, binding := range []string{string(core.TechSOAP), string(core.TechCORBA), jsonb.Name, h2b.Name} {
		t.Run(binding, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			fmt.Fprintf(&out, "%s on %s\n%12s", title, binding, "")
			for upd := range []rune(matrix[0]) {
				fmt.Fprintf(&out, "%6s", "("+updatePoints[upd+1]+")")
			}
			n, consistent := 0, 0
			for _, row := range figureRows(binding, reactive, matrix) {
				if row.upd == 1 {
					fmt.Fprintf(&out, "\npublish (%d)", row.pub)
				}
				var got figureExpect
				t.Run(fmt.Sprintf("%d,%s", row.pub, updatePoints[row.upd]), func(t *testing.T) {
					got = runFigureCell(t, row)
					if got != row.expect {
						t.Errorf("got %+v, want %+v", got, row.expect)
					}
				})
				mark := "✗"
				if got.consistent {
					mark, consistent = "✓", consistent+1
				}
				fmt.Fprintf(&out, "%6s", mark)
				n++
			}
			t.Logf("%s\nconsistent: %d/%d", &out, consistent, n)
		})
	}
}

// docGate is the Figure 7 client's HTTP transport: calls pass, and
// document reads are served only while the gate is open.
type docGate struct {
	open atomic.Bool
	tr   http.Transport
}

func (g *docGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && !g.open.Load() {
		return nil, errors.New("document read outside the cell's update point")
	}
	return g.tr.RoundTrip(req)
}

// runFigureCell makes the row's stale call and reports what it observed.
func runFigureCell(t *testing.T, row figureRow) figureExpect {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	clk := clock.NewFake()
	mgr, err := core.NewManager(core.Config{Timeout: time.Second, Clock: clk, ActivePublishingOnly: !row.reactive})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	class := dyn.NewClass("Race")
	id, err := class.AddMethod(dyn.MethodSpec{
		Name:        "op",
		Result:      dyn.Int32T,
		Distributed: true,
		Body: func(*dyn.Instance, []dyn.Value) (dyn.Value, error) {
			return dyn.Int32Value(1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mgr.Register(class, core.Technology(row.binding))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		t.Fatal(err)
	}

	gate := &docGate{}
	defer gate.tr.CloseIdleConnections()
	opts := &cde.DialOptions{Binding: row.binding}
	if !row.reactive {
		opts.HTTPClient = &http.Client{Transport: gate}
	}
	if cs, ok := srv.(*core.CORBAServer); ok {
		opts.AuxURL = cs.IORURL()
	}
	gate.open.Store(true)
	client, err := cde.Dial(ctx, srv.InterfaceURL(), opts)
	gate.open.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	publish := func(at int) {
		if row.pub == at {
			clk.Advance(time.Second)
			srv.Publisher().WaitIdle()
		}
	}
	update := func(at int) {
		if row.upd == at {
			gate.open.Store(true)
			defer gate.open.Store(false)
			if err := client.RefreshContext(ctx); err != nil {
				t.Errorf("update (%s): %v", updatePoints[at], err)
			}
		}
	}
	srv.(interface{ SetStaleHook(func()) }).SetStaleHook(func() {
		update(1)
		publish(2)
	})
	client.Debugger().SetPrompt(func(cde.Exception) { update(2) })

	if err := class.RenameMethod(id, "op2"); err != nil {
		t.Fatal(err)
	}
	publish(1)
	if _, err := client.CallContext(ctx, "op"); !errors.Is(err, cde.ErrStaleMethod) {
		t.Fatalf("call under the old name: %v, want a stale-method error", err)
	}
	view := client.Interface()
	_, hasOld := view.Lookup("op")
	_, hasNew := view.Lookup("op2")
	if hasOld == hasNew {
		t.Errorf("the view holds op: %v, op2: %v", hasOld, hasNew)
	}
	publish(3)
	update(3)
	publish(4)
	update(4)
	return figureExpect{consistent: hasNew && !hasOld, forced: srv.Publisher().Stats().Forced}
}
