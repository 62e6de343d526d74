// Bank-corba: a CORBA-RMI bank service with per-account state held in
// dynamic fields, served through the SDE's CORBA call handler (which
// resolves each operation against the live interface at dispatch, the
// DSI idea) and consumed through a CDE client (DII), with the full IOR +
// CORBA-IDL bootstrap of the paper's Figure 2. The interface then evolves
// live: withdraw gains an overdraft-protection parameter, and the
// connected client observes the signature change through the reactive
// protocol.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"livedev"
	"livedev/internal/ifsvr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bank-corba:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	var mu sync.Mutex
	balances := map[string]int64{"alice": 1000, "bob": 50}

	bank := livedev.NewClass("Bank")
	if _, err := bank.AddMethod(livedev.MethodSpec{
		Name:        "balance",
		Params:      []livedev.Param{{Name: "account", Type: livedev.StringType}},
		Result:      livedev.Int64Type,
		Distributed: true,
		Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
			mu.Lock()
			defer mu.Unlock()
			b, ok := balances[args[0].Str()]
			if !ok {
				return livedev.Value{}, fmt.Errorf("no such account %q", args[0].Str())
			}
			return livedev.Int64(b), nil
		},
	}); err != nil {
		return err
	}
	withdrawID, err := bank.AddMethod(livedev.MethodSpec{
		Name: "withdraw",
		Params: []livedev.Param{
			{Name: "account", Type: livedev.StringType},
			{Name: "amount", Type: livedev.Int64Type},
		},
		Result:      livedev.Int64Type,
		Distributed: true,
		Body: func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
			mu.Lock()
			defer mu.Unlock()
			acct, amt := args[0].Str(), args[1].Int64()
			balances[acct] -= amt // v1 semantics: overdrafts allowed!
			return livedev.Int64(balances[acct]), nil
		},
	})
	if err != nil {
		return err
	}

	mgr, err := livedev.NewManager(livedev.Config{Timeout: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	defer func() { _ = mgr.Close() }()
	srv, err := mgr.Register(bank, livedev.TechCORBA)
	if err != nil {
		return err
	}
	if _, err := srv.CreateInstance(); err != nil {
		return err
	}
	fmt.Println("CORBA-IDL:", srv.InterfaceURL())
	fmt.Println("IOR:      ", srv.Endpoint())

	// Show the published artifacts, as a CORBA client would fetch them.
	idlDoc, err := ifsvr.FetchContext(ctx, nil, srv.InterfaceURL())
	if err != nil {
		return err
	}
	fmt.Println("published IDL document:")
	fmt.Print(indent(idlDoc.Content))

	// Dial sniffs the IDL document and derives the IOR URL from the
	// /idl/ <-> /ior/ publication convention (WithAuxURL would override).
	teller, err := livedev.Dial(ctx, srv.InterfaceURL())
	if err != nil {
		return err
	}
	defer func() { _ = teller.Close() }()

	bal, err := teller.CallContext(ctx, "balance", livedev.Str("bob"))
	if err != nil {
		return err
	}
	fmt.Println("bob's balance:", bal)

	// v1 allows overdrafts — a bug the developer notices in live testing.
	after, err := teller.CallContext(ctx, "withdraw", livedev.Str("bob"), livedev.Int64(200))
	if err != nil {
		return err
	}
	fmt.Println("bob withdrew 200 ->", after, "(overdraft! fixing live...)")

	// The developer changes the signature live: withdraw gains an
	// allowOverdraft parameter and the body enforces it.
	if err := bank.SetParams(withdrawID, []livedev.Param{
		{Name: "account", Type: livedev.StringType},
		{Name: "amount", Type: livedev.Int64Type},
		{Name: "allowOverdraft", Type: livedev.BooleanType},
	}); err != nil {
		return err
	}
	if err := bank.SetBody(withdrawID, func(_ *livedev.Instance, args []livedev.Value) (livedev.Value, error) {
		mu.Lock()
		defer mu.Unlock()
		acct, amt, allow := args[0].Str(), args[1].Int64(), args[2].Bool()
		if !allow && balances[acct] < amt {
			return livedev.Value{}, fmt.Errorf("insufficient funds in %q", acct)
		}
		balances[acct] -= amt
		return livedev.Int64(balances[acct]), nil
	}); err != nil {
		return err
	}
	fmt.Println("developer changed withdraw/2 -> withdraw/3 live")

	// The teller's next old-style call runs the reactive protocol: forced
	// IDL publication on the server, view refresh on the client.
	_, err = teller.CallContext(ctx, "withdraw", livedev.Str("bob"), livedev.Int64(10))
	if !errors.Is(err, livedev.ErrStaleMethod) {
		return fmt.Errorf("expected stale-method error, got %v", err)
	}
	fmt.Println("teller's stale call rejected; refreshed interface:")
	for _, m := range teller.Interface().Methods {
		fmt.Println("  ", m)
	}

	// Retry with the new signature: overdraft now refused.
	_, err = teller.CallContext(ctx, "withdraw", livedev.Str("bob"), livedev.Int64(10_000), livedev.Bool(false))
	if err == nil {
		return fmt.Errorf("overdraft should have been refused")
	}
	fmt.Println("overdraft refused:", err)

	after, err = teller.CallContext(ctx, "withdraw", livedev.Str("alice"), livedev.Int64(300), livedev.Bool(false))
	if err != nil {
		return err
	}
	fmt.Println("alice withdrew 300 ->", after)
	return nil
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
