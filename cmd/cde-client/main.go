// Command cde-client is a live CDE client: it compiles the published
// interface description of a running SDE (or static) server, lists the
// interface, and can invoke methods with arguments given on the command
// line. On a "Non Existent Method" reply it shows the reactive update the
// CDE performed — the Figure 9 experience in terminal form.
//
// Usage:
//
//	cde-client -url URL [-binding NAME] [-timeout D] [-watch] [-parallel N]  [method arg...]
//	cde-client -wsdl URL                              [method arg...]
//	cde-client -idl URL -ior URL                      [method arg...]
//
// -url is the v2 entry point: any registered binding's interface-document
// URL (WSDL, CORBA-IDL, IOR, JSON, h2b). The binding is sniffed from the
// document, or forced with -binding. -timeout bounds each call. The -wsdl
// and -idl/-ior forms remain for compatibility.
//
// -parallel N issues the call N times concurrently instead of once — an
// ad-hoc smoke run of a binding's concurrent-call path (for the h2b
// binding, N calls multiplex as N streams on one TCP connection). The
// wall-clock for the batch and any per-call errors are reported.
//
// Arguments are parsed against the method's current signature: int32/int64
// as decimal, float32/float64 as decimal floats, booleans as true/false,
// chars as single characters, everything else as strings.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"livedev"
	"livedev/internal/cde"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
)

func main() {
	os.Exit(run())
}

func run() int {
	url := flag.String("url", "", "interface-document URL of any registered binding")
	binding := flag.String("binding", "", "force a binding name instead of sniffing the document")
	timeout := flag.Duration("timeout", 0, "per-call timeout (0 = none)")
	watch := flag.Bool("watch", false, "subscribe to push-based interface updates (one held SSE stream)")
	parallel := flag.Int("parallel", 1, "issue the call N times concurrently (concurrent-call smoke run)")
	wsdlURL := flag.String("wsdl", "", "WSDL document URL (SOAP mode)")
	idlURL := flag.String("idl", "", "CORBA-IDL document URL (CORBA mode)")
	iorURL := flag.String("ior", "", "stringified IOR URL (CORBA mode)")
	flag.Parse()

	livedev.RegisterBinding(jsonb.New())
	livedev.RegisterBinding(h2b.New())

	ctx := context.Background()
	var client *cde.Client
	var err error
	switch {
	case *url != "":
		opts := []livedev.Option{livedev.WithTimeout(*timeout)}
		if *watch {
			opts = append(opts, livedev.WithWatch())
		}
		if *binding != "" {
			opts = append(opts, livedev.WithBinding(*binding))
		}
		if *iorURL != "" {
			opts = append(opts, livedev.WithAuxURL(*iorURL))
		}
		client, err = livedev.Dial(ctx, *url, opts...)
	case *wsdlURL != "":
		client, err = livedev.Dial(ctx, *wsdlURL,
			livedev.WithBinding("SOAP"), livedev.WithTimeout(*timeout))
	case *idlURL != "" && *iorURL != "":
		client, err = livedev.Dial(ctx, *idlURL,
			livedev.WithBinding("CORBA"), livedev.WithAuxURL(*iorURL), livedev.WithTimeout(*timeout))
	default:
		fmt.Fprintln(os.Stderr, "cde-client: need -url URL (v2), -wsdl URL, or -idl URL and -ior URL")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cde-client:", err)
		return 1
	}
	defer func() { _ = client.Close() }()

	iface := client.Interface()
	fmt.Printf("connected over %s; server interface (%d methods):\n", client.Technology(), len(iface.Methods))
	for _, m := range iface.Methods {
		fmt.Println("  ", m)
	}

	args := flag.Args()
	if len(args) == 0 {
		return 0
	}
	method := args[0]
	sig, ok := iface.Lookup(method)
	if !ok {
		fmt.Fprintf(os.Stderr, "cde-client: method %s is not on the current interface\n", method)
		return 1
	}
	if len(args)-1 != len(sig.Params) {
		fmt.Fprintf(os.Stderr, "cde-client: %s takes %d arguments, got %d\n", method, len(sig.Params), len(args)-1)
		return 2
	}
	vals := make([]dyn.Value, len(sig.Params))
	for i, p := range sig.Params {
		v, err := parseArg(args[1+i], p.Type)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cde-client: argument %s: %v\n", p.Name, err)
			return 2
		}
		vals[i] = v
	}

	if *parallel > 1 {
		return runParallel(ctx, client, method, vals, *parallel)
	}

	result, err := client.CallContext(ctx, method, vals...)
	if err != nil {
		var stale *cde.StaleMethodError
		if errors.As(err, &stale) {
			fmt.Printf("server says %q is stale; interface view refreshed to descriptor version %d:\n",
				method, stale.RefreshedDescriptorVersion)
			for _, m := range client.Interface().Methods {
				fmt.Println("  ", m)
			}
			return 1
		}
		fmt.Fprintln(os.Stderr, "cde-client:", err)
		return 1
	}
	fmt.Println(result)
	if *watch {
		st := client.Stats()
		fmt.Printf("watch stats: %d stream events (%d replayed, %d reconnects), %d watch updates, %d refreshes\n",
			st.StreamEvents, st.Replays, st.Reconnects, st.WatchUpdates, st.Refreshes)
	}
	return 0
}

// runParallel issues the same call n times concurrently and reports the
// batch wall-clock plus any per-call failures — a smoke run of the
// binding's concurrent-call path (one multiplexed connection under h2b,
// pooled connections elsewhere).
func runParallel(ctx context.Context, client *cde.Client, method string, vals []dyn.Value, n int) int {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstVal dyn.Value
		gotFirst bool
		errs     []error
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := client.CallContext(ctx, method, vals...)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			if !gotFirst {
				firstVal, gotFirst = v, true
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if gotFirst {
		fmt.Println(firstVal)
	}
	fmt.Printf("%d concurrent calls in %v (%.0f calls/s), %d failed\n",
		n, elapsed, float64(n)/elapsed.Seconds(), len(errs))
	for i, err := range errs {
		if i == 3 {
			fmt.Fprintf(os.Stderr, "cde-client: ... and %d more errors\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "cde-client:", err)
	}
	if len(errs) > 0 {
		return 1
	}
	return 0
}

func parseArg(s string, t *dyn.Type) (dyn.Value, error) {
	switch t.Kind() {
	case dyn.KindBoolean:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.BoolValue(b), nil
	case dyn.KindChar:
		r := []rune(s)
		if len(r) != 1 {
			return dyn.Value{}, fmt.Errorf("char argument must be one character")
		}
		return dyn.CharValue(r[0]), nil
	case dyn.KindInt32:
		i, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Int32Value(int32(i)), nil
	case dyn.KindInt64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Int64Value(i), nil
	case dyn.KindFloat32:
		f, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float32Value(float32(f)), nil
	case dyn.KindFloat64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return dyn.Value{}, err
		}
		return dyn.Float64Value(f), nil
	case dyn.KindString:
		return dyn.StringValue(s), nil
	default:
		return dyn.Value{}, fmt.Errorf("cannot parse %s arguments from the command line", t)
	}
}
