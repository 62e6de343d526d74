// Command ifdump fetches a published interface description (WSDL,
// CORBA-IDL, or an h2b binary-binding descriptor) from an SDE Interface
// Server, compiles it the way a CDE client would, and prints both the raw
// document and the resolved method signatures with their version headers —
// a debugging window into the publication protocol.
//
// With -watch N it then follows the document over the Interface Server's
// SSE watch stream on one held connection, printing each newly committed
// version as it is pushed (N updates, then exit; 0 follows forever) and
// marking replayed (journal catch-up) and snapshot events — a live view
// of the publication store's commits.
//
// With -stats it also fetches the server's publication-store counters
// (the /.stats endpoint on the same host as the document URL) and prints
// them — publishes, commits, journal replays, for a durable store the
// WAL durability block (lsns, fsyncs, group-commit batch sizes,
// sync-wait totals), for a replicated server the Replication block
// (role, applied vs leader lsn, lag, bootstrap and
// reconnect counts), and the watch fan-out block: held watchers per
// registry shard, commit wakeups, delivery batch-size percentiles, and
// the backpressure evictions/resets. Pointed at a read-only replica
// (sde-server -follow) this is the quickest way to see how far behind
// its leader it is.
//
// Usage:
//
//	ifdump -wsdl URL [-watch N] [-stats]
//	ifdump -idl URL [-iface NAME] [-watch N] [-stats]
//	ifdump -h2b URL [-watch N] [-stats]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"livedev/internal/h2b"
	"livedev/internal/idl"
	"livedev/internal/ifsvr"
	"livedev/internal/wsdl"
)

func main() {
	os.Exit(run())
}

func run() int {
	wsdlURL := flag.String("wsdl", "", "WSDL document URL")
	idlURL := flag.String("idl", "", "CORBA-IDL document URL")
	h2bURL := flag.String("h2b", "", "h2b binary-binding descriptor URL")
	ifaceName := flag.String("iface", "", "interface name to resolve (IDL mode; default: the only interface)")
	raw := flag.Bool("raw", false, "print the raw document too")
	watch := flag.Int("watch", -1, "after dumping, follow the document's watch stream for N updates (0 = forever)")
	stats := flag.Bool("stats", false, "also fetch and print the server's publication-store counters (/.stats)")
	flag.Parse()

	switch {
	case *wsdlURL != "":
		return dump(*wsdlURL, *raw, *watch, *stats, func(doc ifsvr.Document) error {
			return printWSDL(doc)
		})
	case *idlURL != "":
		name := *ifaceName
		return dump(*idlURL, *raw, *watch, *stats, func(doc ifsvr.Document) error {
			return printIDL(doc, name)
		})
	case *h2bURL != "":
		return dump(*h2bURL, *raw, *watch, *stats, printH2B)
	default:
		fmt.Fprintln(os.Stderr, "ifdump: need -wsdl URL, -idl URL, or -h2b URL")
		return 2
	}
}

// printStats fetches the Interface Server's store counters from the
// /.stats endpoint on the document URL's host and prints them verbatim
// (the server already emits indented JSON).
func printStats(docURL string) error {
	u, err := url.Parse(docURL)
	if err != nil {
		return fmt.Errorf("stats: parsing %s: %w", docURL, err)
	}
	statsURL := u.Scheme + "://" + u.Host + ifsvr.StatsPath
	resp, err := http.Get(statsURL)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s returned %s", statsURL, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("stats: reading %s: %w", statsURL, err)
	}
	fmt.Printf("\nstore stats (%s):\n%s", statsURL, body)
	return nil
}

// dump fetches and prints the document once, then optionally follows its
// watch stream.
func dump(url string, raw bool, watch int, stats bool, print func(ifsvr.Document) error) int {
	ctx := context.Background()
	doc, err := ifsvr.FetchContext(ctx, nil, url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ifdump:", err)
		return 1
	}
	if err := printDoc(doc, raw, print); err != nil {
		fmt.Fprintln(os.Stderr, "ifdump:", err)
		return 1
	}
	if stats {
		if err := printStats(url); err != nil {
			fmt.Fprintln(os.Stderr, "ifdump:", err)
			return 1
		}
	}
	if watch < 0 {
		return 0
	}
	return streamFollow(ctx, url, doc, raw, watch, print)
}

// streamFollow follows the document over the SSE transport, reconnecting
// from the last seen epoch (journal replay) if the stream breaks.
func streamFollow(ctx context.Context, url string, doc ifsvr.Document, raw bool, watch int, print func(ifsvr.Document) error) int {
	n := 0
	after := doc.Epoch
	for watch == 0 || n < watch {
		streamCtx, cancel := context.WithCancel(ctx)
		err := ifsvr.WatchStream(streamCtx, nil, url, after, func(ev ifsvr.StreamEvent) {
			after = ev.Doc.Epoch
			switch {
			case ev.Snapshot:
				fmt.Println("\n--- stream snapshot (journal evicted; full catch-up) ---")
			case ev.Replayed:
				fmt.Println("\n--- stream replay (journal catch-up) ---")
			default:
				fmt.Println("\n--- stream update ---")
			}
			if perr := printDoc(ev.Doc, raw, print); perr != nil {
				fmt.Fprintln(os.Stderr, "ifdump:", perr)
			}
			n++
			if watch != 0 && n >= watch {
				cancel()
			}
		})
		cancel()
		if watch != 0 && n >= watch {
			break
		}
		if errors.Is(err, ifsvr.ErrStreamUnsupported) {
			fmt.Fprintln(os.Stderr, "ifdump: server does not stream:", err)
			return 1
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ifdump: stream:", err)
		}
		// Reconnect pacing: a dead or unreachable server must not turn the
		// follow loop into a connect storm.
		time.Sleep(time.Second)
	}
	return 0
}

func printDoc(doc ifsvr.Document, raw bool, print func(ifsvr.Document) error) error {
	gen := ""
	if doc.Generation != 0 {
		gen = fmt.Sprintf(", generation %d", doc.Generation)
	}
	fmt.Printf("document version %d (descriptor version %d, store epoch %d%s)\n",
		doc.Version, doc.DescriptorVersion, doc.Epoch, gen)
	if raw {
		fmt.Println(doc.Content)
	}
	return print(doc)
}

func printWSDL(doc ifsvr.Document) error {
	parsed, err := wsdl.Parse([]byte(doc.Content))
	if err != nil {
		return fmt.Errorf("compiling WSDL: %w", err)
	}
	fmt.Printf("service %s at %s\n", parsed.ServiceName, parsed.Endpoint)
	for _, m := range parsed.Methods {
		fmt.Println("  ", m)
	}
	return nil
}

func printH2B(doc ifsvr.Document) error {
	desc, endpoint, mux, err := h2b.ParseDoc(doc.Content)
	if err != nil {
		return fmt.Errorf("parsing h2b descriptor: %w", err)
	}
	fmt.Printf("class %s at %s", desc.ClassName, endpoint)
	if mux != "" {
		fmt.Printf(" (mux %s)", mux)
	}
	fmt.Println()
	for _, m := range desc.Methods {
		fmt.Println("  ", m)
	}
	return nil
}

func printIDL(doc ifsvr.Document, ifaceName string) error {
	parsed, err := idl.Parse(doc.Content)
	if err != nil {
		return fmt.Errorf("parsing IDL: %w", err)
	}
	if ifaceName == "" {
		if len(parsed.Interfaces) != 1 {
			return fmt.Errorf("module %s has %d interfaces; pick one with -iface",
				parsed.Module, len(parsed.Interfaces))
		}
		ifaceName = parsed.Interfaces[0].Name
	}
	desc, err := idl.Resolve(parsed, ifaceName)
	if err != nil {
		return fmt.Errorf("resolving IDL: %w", err)
	}
	fmt.Printf("module %s, interface %s (repository id %s)\n",
		parsed.Module, ifaceName, parsed.RepositoryID(ifaceName))
	for _, m := range desc.Methods {
		fmt.Println("  ", m)
	}
	return nil
}
