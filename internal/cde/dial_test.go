package cde

import (
	"context"
	"strings"
	"testing"

	"livedev/internal/ifsvr"
)

func TestMatchConnectorScoring(t *testing.T) {
	// The built-in SOAP and CORBA connectors are registered by init().
	cases := []struct {
		name    string
		url     string
		doc     ifsvr.Document
		want    string
		wantErr bool
	}{
		{
			name: "wsdl by content type and suffix",
			url:  "http://host/wsdl/Calc.wsdl",
			doc:  ifsvr.Document{ContentType: `text/xml; charset="utf-8"`, Content: `<definitions xmlns="..."/>`},
			want: "SOAP",
		},
		{
			name: "idl by suffix and content",
			url:  "http://host/idl/Calc.idl",
			doc:  ifsvr.Document{ContentType: "text/plain", Content: "module CalcModule { interface Calc {}; };"},
			want: "CORBA",
		},
		{
			name: "ior by suffix and prefix",
			url:  "http://host/ior/Calc.ior",
			doc:  ifsvr.Document{ContentType: "text/plain", Content: "IOR:0001"},
			want: "CORBA",
		},
		{
			name:    "unrecognizable document",
			url:     "http://host/mystery.bin",
			doc:     ifsvr.Document{ContentType: "application/octet-stream", Content: "\x00\x01"},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := matchConnector(tc.url, tc.doc)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("matched %s, want error", c.Name)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Name != tc.want {
				t.Errorf("matched %s, want %s", c.Name, tc.want)
			}
		})
	}
}

func TestDialUnknownBindingError(t *testing.T) {
	_, err := Dial(context.Background(), "http://127.0.0.1:0/x", &DialOptions{Binding: "GOPHER"})
	if err == nil || !strings.Contains(err.Error(), "GOPHER") {
		t.Fatalf("want unknown-binding error naming GOPHER, got %v", err)
	}
	// The error lists what IS registered, to guide the caller.
	if !strings.Contains(err.Error(), "SOAP") {
		t.Errorf("error should list registered bindings: %v", err)
	}
}

// TestResolveAddr is the client's one rule for a published address: an
// unspecified host takes the host of the URL the document was read from,
// and everything else passes through.
func TestResolveAddr(t *testing.T) {
	const base = "http://127.0.0.2:7001/wsdl/Calc.wsdl"
	cases := []struct{ addr, base, want string }{
		{"http://0.0.0.0:8080/soap/Calc", base, "http://127.0.0.2:8080/soap/Calc"},
		{"http://[::]:8080/soap/Calc", base, "http://127.0.0.2:8080/soap/Calc"},
		{"[::]:9000", base, "127.0.0.2:9000"},
		{"0.0.0.0:9000", base, "127.0.0.2:9000"},
		{"::", base, "127.0.0.2"}, // an IOR profile's host
		{"0.0.0.0", base, "127.0.0.2"},
		{"http://[0:0::0]:8080/x", base, "http://127.0.0.2:8080/x"},
		// A specific IP and a host name stay as they are.
		{"http://10.1.2.3:8080/soap/Calc", base, "http://10.1.2.3:8080/soap/Calc"},
		{"http://[::1]:8080/soap/Calc", base, "http://[::1]:8080/soap/Calc"},
		{"http://calc.example:8080/soap/Calc", base, "http://calc.example:8080/soap/Calc"},
		{"calc.example:9000", base, "calc.example:9000"},
		{"10.0.0.1", base, "10.0.0.1"},
		// A path and a query stay.
		{"http://[::]:8080/json/Calc?trace=1#top", base, "http://127.0.0.2:8080/json/Calc?trace=1#top"},
		// An IPv6-literal base is bracketed where a port follows.
		{"http://0.0.0.0:8080/soap/Calc", "http://[fd00::7]:7001/wsdl/Calc.wsdl", "http://[fd00::7]:8080/soap/Calc"},
		{"0.0.0.0:9000", "http://[fd00::7]:7001/x", "[fd00::7]:9000"},
		{"::", "http://[fd00::7]:7001/x", "fd00::7"},
		// A base host name, and a base without a port.
		{"http://[::]:8080/x", "http://calc.example/wsdl/Calc.wsdl", "http://calc.example:8080/x"},
		// Input that does not parse, or no usable base, is returned unchanged.
		{"http://[::/soap/Calc", base, "http://[::/soap/Calc"},
		{"", base, ""},
		{"http://[::]:8080/x", "", "http://[::]:8080/x"},
		{"http://[::]:8080/x", "http://0.0.0.0:7001/x", "http://0.0.0.0:8080/x"},
	}
	for _, c := range cases {
		if got := ResolveAddr(c.addr, c.base); got != c.want {
			t.Errorf("ResolveAddr(%q, %q) = %q, want %q", c.addr, c.base, got, c.want)
		}
	}
	for _, addr := range []string{"http://127.0.0.1:8080/soap/Calc", "calc.example:9000", "http://calc.example/x", "[::1]:9000", ""} {
		if n := testing.AllocsPerRun(100, func() { _ = ResolveAddr(addr, base) }); n != 0 {
			t.Errorf("ResolveAddr(%q) allocates %v times, want 0", addr, n)
		}
	}
}
