package soap

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// echoServer answers SOAP requests per the handler function.
func soapTestServer(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientCallSuccess(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := ParseRequest(body)
		if err != nil {
			t.Errorf("server got unparseable request: %v", err)
		}
		if req.Method != "greet" {
			t.Errorf("method = %q", req.Method)
		}
		if got := r.Header.Get("SOAPAction"); got != `"urn:S#greet"` {
			t.Errorf("SOAPAction = %s", got)
		}
		if r.ContentLength != int64(len(body)) {
			t.Errorf("request declares %d bytes, carries %d", r.ContentLength, len(body))
		}
		env, _ := BuildResponse("urn:S", "greet", dyn.StringValue("hello"))
		_, _ = io.WriteString(w, env)
	})
	c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
	got, err := c.CallContext(context.Background(), "greet", nil, dyn.StringT)
	if err != nil || got.Str() != "hello" {
		t.Errorf("Call = %v, %v", got, err)
	}
}

// A reply over the 16 MiB cap is its own error, not a truncated document
// reported as malformed XML.
func TestClientCallOversizeReply(t *testing.T) {
	env, err := BuildResponse("urn:S", "big", dyn.StringValue(strings.Repeat("x", maxBodyBytes)))
	if err != nil {
		t.Fatal(err)
	}
	for _, declare := range []bool{true, false} {
		srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
			if !declare { // chunked: the cap has to be found by reading
				w.(http.Flusher).Flush()
			}
			_, _ = io.WriteString(w, env)
		})
		c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
		if _, err := c.CallContext(context.Background(), "big", nil, dyn.StringT); !errors.Is(err, ErrBodyTooLarge) {
			t.Errorf("declared length %v: oversize reply = %v, want ErrBodyTooLarge", declare, err)
		}
	}
}

// The reply writers declare the envelope's length and hand it to the
// connection whole, so net/http does not chunk it.
func TestWriteResponseDeclaresLength(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fault" {
			WriteFault(w, &Fault{Code: "soap:Server", String: FaultNonExistentMethod})
		} else if err := WriteResponse(w, "urn:S", "echo", bulkValue()); err != nil {
			t.Error(err)
		}
	})
	for path, status := range map[string]int{"/ok": http.StatusOK, "/fault": http.StatusInternalServerError} {
		resp, err := http.Post(srv.URL+path, contentType, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != status || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: HTTP %d, Content-Length %d, Transfer-Encoding %v for %d bytes", path, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if resp.Header.Get("Content-Type") != contentType {
			t.Errorf("%s: Content-Type = %q", path, resp.Header.Get("Content-Type"))
		}
		if _, ok := checkResponse(t, body, dyn.SequenceOf(bulkItem)); !ok {
			t.Errorf("%s: reply does not parse", path)
		}
	}
}

func TestClientCallVoidResult(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
		env, _ := BuildResponse("urn:S", "reset", dyn.VoidValue())
		_, _ = io.WriteString(w, env)
	})
	c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
	got, err := c.CallContext(context.Background(), "reset", nil, dyn.Void)
	if err != nil || !got.IsVoid() {
		t.Errorf("void call = %v, %v", got, err)
	}
	// nil result type behaves like void.
	if _, err := c.CallContext(context.Background(), "reset", nil, nil); err != nil {
		t.Errorf("nil result type: %v", err)
	}
}

func TestClientCallFaultWithHTTP500(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, BuildFault(&Fault{Code: "soap:Server", String: FaultNonExistentMethod}))
	})
	c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
	_, err := c.CallContext(context.Background(), "x", nil, dyn.Int32T)
	if !IsNonExistentMethod(err) {
		t.Errorf("fault = %v", err)
	}
}

// TestFaultCarriesInterface: a "Non existent Method" fault carrying the
// interface document puts its text in one <interface> child of <detail>, as
// character data — never markup, to the tree parser as much as to the
// scanner — and its counters in the document headers; the client reads both
// back into Fault.Interface. The detail text a reader before this change
// sees is unchanged, and without the headers nothing is carried.
func TestFaultCarriesInterface(t *testing.T) {
	doc := &ifsvr.Document{Content: `<definitions name="a&amp;b"><x/><![CDATA[]]></definitions>]]>`, Version: 4, DescriptorVersion: 6, Epoch: 9, Generation: 12}
	const detail = "method x is not part of the current server interface"
	fault := &Fault{Code: "soap:Server", String: FaultNonExistentMethod, Detail: detail, Interface: doc}
	env := BuildFault(fault)
	tree, err := oracleParseXML([]byte(env))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := tree.Children[0].Children[0].Child("detail")
	if !ok || d.Text != detail || len(d.Children) != 1 || d.Children[0].Name != "interface" ||
		len(d.Children[0].Children) != 0 || d.Children[0].Text != doc.Content {
		t.Fatalf("detail as the tree parser reads it: %+v\n%s", d, env)
	}
	parsed, err := ParseResponse([]byte(env))
	if err != nil || parsed.Fault == nil || parsed.Fault.Detail != detail {
		t.Fatalf("parsed %+v, %v", parsed.Fault, err)
	}
	for _, withHeaders := range []bool{true, false} {
		srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
			f := *fault
			if !withHeaders {
				// The envelope alone: the counters are not there.
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = io.WriteString(w, BuildFault(&f))
				return
			}
			WriteFault(w, &f)
		})
		_, err := (&Client{Endpoint: srv.URL, ServiceNS: "urn:S"}).CallContext(context.Background(), "x", nil, dyn.Int32T)
		var got *Fault
		if !errors.As(err, &got) || !IsNonExistentMethod(err) || got.Detail != detail {
			t.Fatalf("fault = %v", err)
		}
		switch {
		case !withHeaders && got.Interface != nil:
			t.Errorf("carried %+v without the document headers", got.Interface)
		case withHeaders && (got.Interface == nil || *got.Interface != *doc):
			t.Errorf("carried %+v, want %+v", got.Interface, doc)
		}
	}
}

func TestClientCallHTTPErrorWithoutEnvelope(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gateway exploded", http.StatusBadGateway)
	})
	c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
	_, err := c.CallContext(context.Background(), "x", nil, dyn.Int32T)
	if err == nil || !strings.Contains(err.Error(), "HTTP 502") {
		t.Errorf("HTTP error = %v", err)
	}
}

func TestClientCallGarbage200(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "this is not xml")
	})
	c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
	if _, err := c.CallContext(context.Background(), "x", nil, dyn.Int32T); err == nil {
		t.Error("garbage 200 should fail")
	}
}

func TestClientCallMissingReturn(t *testing.T) {
	srv := soapTestServer(t, func(w http.ResponseWriter, _ *http.Request) {
		// A response claiming success but with no return element, for a
		// non-void result type.
		env, _ := BuildResponse("urn:S", "x", dyn.VoidValue())
		_, _ = io.WriteString(w, env)
	})
	c := &Client{Endpoint: srv.URL, ServiceNS: "urn:S"}
	if _, err := c.CallContext(context.Background(), "x", nil, dyn.Int32T); err == nil {
		t.Error("missing return element should fail")
	}
}

func TestClientUnreachable(t *testing.T) {
	c := &Client{Endpoint: "http://127.0.0.1:1/", ServiceNS: "urn:S"}
	if _, err := c.CallContext(context.Background(), "x", nil, dyn.Int32T); err == nil {
		t.Error("unreachable endpoint should fail")
	}
}

func TestClientBadEndpointURL(t *testing.T) {
	c := &Client{Endpoint: "://not-a-url", ServiceNS: "urn:S"}
	if _, err := c.CallContext(context.Background(), "x", nil, dyn.Int32T); err == nil {
		t.Error("invalid URL should fail")
	}
}

func TestXSDTypeNames(t *testing.T) {
	msg := dyn.MustStructOf("M", dyn.StructField{Name: "a", Type: dyn.Int32T})
	cases := map[*dyn.Type]string{
		dyn.Boolean:         "xsd:boolean",
		dyn.Char:            "xsd:string",
		dyn.Int32T:          "xsd:int",
		dyn.Int64T:          "xsd:long",
		dyn.Float32T:        "xsd:float",
		dyn.Float64T:        "xsd:double",
		dyn.StringT:         "xsd:string",
		dyn.SequenceOf(msg): "soapenc:Array",
		msg:                 "tns:M",
		dyn.Void:            "xsd:anyType",
	}
	for typ, want := range cases {
		if got := xsdType(typ); got != want {
			t.Errorf("xsdType(%v) = %q, want %q", typ, got, want)
		}
	}
}
