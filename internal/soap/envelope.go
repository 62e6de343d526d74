package soap

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"livedev/internal/dyn"
	"livedev/internal/ifsvr"
)

// SOAP 1.1 namespace URIs, emitted on envelopes for interoperability.
const (
	NSEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
	NSXSI      = "http://www.w3.org/2001/XMLSchema-instance"
	NSXSD      = "http://www.w3.org/2001/XMLSchema"
	NSEncoding = "http://schemas.xmlsoap.org/soap/encoding/"
)

// The fault strings the paper's SOAP Call Handler sends (Section 5.1.3).
const (
	FaultServerNotInitialized = "Server not initialized"
	FaultMalformedRequest     = "Malformed SOAP Request"
	FaultNonExistentMethod    = "Non existent Method"
)

// Fault is a SOAP fault, used as the error type for all SOAP-level
// failures a client observes.
type Fault struct {
	Code   string // "soap:Client" or "soap:Server"
	String string // human-readable fault string
	Detail string // optional detail text
	// Interface is the current interface document a "Non existent Method"
	// fault carries: its text is the character data of the one <interface>
	// child of <detail>, in CDATA sections, never markup; its counters
	// travel in the ifsvr document headers. WriteFault sends both, and
	// Client.CallContext fills it from both.
	Interface *ifsvr.Document
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("SOAP fault %s: %s", f.Code, f.String)
}

// IsNonExistentMethod reports whether err is the "Non existent Method"
// fault — the SOAP-side signal of the paper's stale-method condition.
// Receiving it guarantees the server already republished a current WSDL.
func IsNonExistentMethod(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.String == FaultNonExistentMethod
}

// NamedValue pairs a parameter name with its value for request encoding.
type NamedValue struct {
	Name  string
	Value dyn.Value
}

// envPrefix/envSuffix are the constant SOAP 1.1 envelope framing around the
// body's single call element. The attributes are in sorted order, as the
// tree renderer the tests compare with emits them.
const (
	envPrefix = `<soapenv:Envelope xmlns:soapenc="` + NSEncoding +
		`" xmlns:soapenv="` + NSEnvelope +
		`" xmlns:xsd="` + NSXSD +
		`" xmlns:xsi="` + NSXSI +
		`"><soapenv:Body>`
	envSuffix = `</soapenv:Body></soapenv:Envelope>`
)

// callSkeleton is the cached constant text around a call (or response)
// element's parameters: everything except the argument nodes themselves.
type callSkeleton struct {
	open      string // `<m:method xmlns:m="NS">`
	selfClose string // `<m:method xmlns:m="NS"/>`
	close     string // `</m:method>`
}

func newCallSkeleton(serviceNS, elem string) *callSkeleton {
	var ns []byte
	ns = AppendEscaped(ns, serviceNS)
	head := "<m:" + elem + ` xmlns:m="` + string(ns) + `"`
	return &callSkeleton{
		open:      head + ">",
		selfClose: head + "/>",
		close:     "</m:" + elem + ">",
	}
}

// Skeletons are cached per service namespace, then per method, so the hot
// path reaches its skeleton with two lock-free map loads and no key
// allocation. reqSkeletons caches request call elements, respSkeletons the
// "<method>Response" elements. Each cache is bounded: once the process has
// seen maxCachedSkeletons distinct (namespace, method) pairs, further pairs
// get a freshly built skeleton per call instead of a cache slot, so a
// long-lived server whose classes are renamed indefinitely (or a client
// spraying distinct method names) cannot grow the cache without bound —
// the hot, stable names it keeps are exactly the ones worth caching.
type skeletonCache struct {
	byNS sync.Map // serviceNS → *sync.Map (method → *callSkeleton)
	size atomic.Int64
}

// maxCachedSkeletons bounds the total entries per skeleton cache.
const maxCachedSkeletons = 1024

var (
	reqSkeletons  skeletonCache
	respSkeletons skeletonCache
)

func (c *skeletonCache) get(serviceNS, method, suffix string) *callSkeleton {
	perNSAny, ok := c.byNS.Load(serviceNS)
	if !ok {
		if c.size.Load() >= maxCachedSkeletons {
			return newCallSkeleton(serviceNS, method+suffix)
		}
		perNSAny, _ = c.byNS.LoadOrStore(serviceNS, &sync.Map{})
	}
	perNS := perNSAny.(*sync.Map)
	if sk, ok := perNS.Load(method); ok {
		return sk.(*callSkeleton)
	}
	if c.size.Load() >= maxCachedSkeletons {
		return newCallSkeleton(serviceNS, method+suffix)
	}
	sk, loaded := perNS.LoadOrStore(method, newCallSkeleton(serviceNS, method+suffix))
	if !loaded {
		c.size.Add(1)
	}
	return sk.(*callSkeleton)
}

// appendRequest renders the SOAP request envelope for an RPC call onto buf:
// the body holds one element named after the method, in the service
// namespace, with one child element per parameter. The envelope skeleton is
// cached per (serviceNS, method); only the parameter elements are rendered
// per call.
func appendRequest(buf []byte, serviceNS, method string, params []NamedValue) ([]byte, error) {
	sk := reqSkeletons.get(serviceNS, method, "")
	buf = append(buf, envPrefix...)
	if len(params) == 0 {
		buf = append(buf, sk.selfClose...)
	} else {
		buf = append(buf, sk.open...)
		for _, p := range params {
			var err error
			if buf, err = appendValue(buf, p.Name, p.Value); err != nil {
				return buf, fmt.Errorf("soap: encoding parameter %s: %w", p.Name, err)
			}
		}
		buf = append(buf, sk.close...)
	}
	return append(buf, envSuffix...), nil
}

// appendResponse renders the SOAP response envelope onto buf:
// <methodResponse> with a single <return> element (omitted for void
// results), around a cached skeleton like appendRequest.
func appendResponse(buf []byte, serviceNS, method string, result dyn.Value) ([]byte, error) {
	sk := respSkeletons.get(serviceNS, method, "Response")
	buf = append(buf, envPrefix...)
	if result.Type().Kind() == dyn.KindVoid {
		buf = append(buf, sk.selfClose...)
	} else {
		buf = append(buf, sk.open...)
		var err error
		if buf, err = appendValue(buf, "return", result); err != nil {
			return buf, fmt.Errorf("soap: encoding result: %w", err)
		}
		buf = append(buf, sk.close...)
	}
	return append(buf, envSuffix...), nil
}

// appendFault renders a fault envelope onto buf.
func appendFault(buf []byte, f *Fault) []byte {
	buf = append(buf, envPrefix+"<soapenv:Fault>"...)
	buf = appendTextElement(buf, "faultcode", f.Code)
	buf = appendTextElement(buf, "faultstring", f.String)
	switch {
	case f.Interface != nil:
		buf = AppendEscaped(append(buf, "<detail>"...), f.Detail)
		buf = appendCDATA(append(buf, "<interface>"...), f.Interface.Content)
		buf = append(buf, "</interface></detail>"...)
	case f.Detail != "":
		buf = appendTextElement(buf, "detail", f.Detail)
	}
	return append(buf, "</soapenv:Fault>"+envSuffix...)
}

// appendCDATA appends text as character data in CDATA sections, which every
// pass of the lexer crosses with one search instead of scanning entity by
// entity: a document of markup escaped as entities parses several times
// slower. A "]]>" in text is split across two sections.
func appendCDATA(buf []byte, text string) []byte {
	buf = append(buf, "<![CDATA["...)
	for {
		i := strings.Index(text, "]]>")
		if i < 0 {
			break
		}
		buf = append(append(buf, text[:i+2]...), "]]><![CDATA["...)
		text = text[i+2:]
	}
	return append(append(buf, text...), "]]>"...)
}

// appendTextElement appends <name>text</name>, self-closed when text is
// empty.
func appendTextElement(buf []byte, name, text string) []byte {
	buf = append(append(buf, '<'), name...)
	if text == "" {
		return append(buf, '/', '>')
	}
	buf = AppendEscaped(append(buf, '>'), text)
	buf = append(append(buf, '<', '/'), name...)
	return append(buf, '>')
}

// rendered runs one of the append functions on a pooled buffer and returns
// an independent copy of what it wrote.
func rendered(appendTo func(buf []byte) ([]byte, error)) (string, error) {
	bp := getRenderBuf()
	buf, err := appendTo((*bp)[:0])
	s := ""
	if err == nil {
		s = string(buf)
	}
	putRenderBuf(bp, buf)
	return s, err
}

// BuildRequest returns the request envelope appendRequest renders.
func BuildRequest(serviceNS, method string, params []NamedValue) (string, error) {
	return rendered(func(buf []byte) ([]byte, error) { return appendRequest(buf, serviceNS, method, params) })
}

// BuildResponse returns the response envelope appendResponse renders.
func BuildResponse(serviceNS, method string, result dyn.Value) (string, error) {
	return rendered(func(buf []byte) ([]byte, error) { return appendResponse(buf, serviceNS, method, result) })
}

// BuildFault returns the fault envelope for f.
func BuildFault(f *Fault) string {
	s, _ := rendered(func(buf []byte) ([]byte, error) { return appendFault(buf, f), nil })
	return s
}

// Request is a parsed SOAP request: the method name and handles on the
// parameter elements, which the call handler decodes against the live
// signature. The handles alias the parsed bytes.
type Request struct {
	Method string
	Params []Element
}

// parseBody validates a whole envelope in one pass — it rejects exactly the
// documents the lexer rejects, and those whose root is not Envelope, that
// have no Body, or whose first Body does not hold exactly one element — and
// returns that element's local name with handles on its child elements.
// Namespace prefixes are not resolved: SOAP 1.1 RPC dispatch is by local
// name.
func parseBody(data []byte) (name []byte, kids []Element, err error) {
	lx := lexer{data: data, open: make([][]byte, 0, 8)} // an envelope of scalars nests five deep
	var (
		inBody, inCall bool // inside the first Body; inside its first child
		bodies, calls  int  // Body elements, children of the first Body
		kid            int  // offset of the open child of the call element
	)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, nil, err
		}
		switch depth := len(lx.open); tok {
		case tokEOF:
			switch {
			case bodies == 0:
				return nil, nil, malformed("no Body element")
			case calls != 1:
				return nil, nil, malformed("Body must contain exactly one element")
			}
			return name, kids, nil
		case tokStart:
			parent := depth // of the element just started
			if !lx.selfClosed {
				parent--
			}
			switch {
			case parent == 0:
				if root := localName(lx.name); string(root) != "Envelope" {
					return nil, nil, malformed("root element is %s, want Envelope", root)
				}
			case parent == 1 && string(localName(lx.name)) == "Body":
				if bodies++; bodies == 1 {
					inBody = !lx.selfClosed
				}
			case parent == 2 && inBody:
				if calls++; calls == 1 {
					name, inCall = localName(lx.name), !lx.selfClosed
				}
			case parent == 3 && inCall:
				if kid = lx.start; lx.selfClosed {
					kids = append(kids, data[kid:lx.pos])
				}
			}
		case tokEnd:
			switch {
			case depth == 3 && inCall:
				kids = append(kids, data[kid:lx.pos])
			case depth == 2:
				inCall = false
			case depth == 1:
				inBody = false
			}
		}
	}
}

// ParseRequest extracts the RPC call from a request envelope.
func ParseRequest(data []byte) (Request, error) {
	name, kids, err := parseBody(data)
	if err != nil {
		return Request{}, err
	}
	return Request{Method: string(name), Params: kids}, nil
}

// Response is a parsed SOAP response: either a result element or a fault.
type Response struct {
	// Method is the responding method name (without the "Response"
	// suffix); empty for faults.
	Method string
	// Return is a handle on the result element, aliasing the parsed bytes;
	// nil for void results and faults.
	Return Element
	// Fault is non-nil if the envelope carried a fault.
	Fault *Fault
	// detail is a handle on the fault's detail element, if any.
	detail Element
}

// child returns the first of kids with the given local name, nil if none.
func child(kids []Element, name string) Element {
	for _, k := range kids {
		if string(k.localName()) == name {
			return k
		}
	}
	return nil
}

// text returns the character data directly under the element.
func (e Element) text() string {
	if e == nil {
		return ""
	}
	d := decoderPool.Get().(*decoder)
	defer putDecoder(d)
	_ = d.enter(e) // parseBody validated the element
	s, _ := d.chars()
	return string(s)
}

// childText returns the character data of the element's first child
// element with the given local name, and whether there is one.
func (e Element) childText(name string) (string, bool) {
	if e == nil {
		return "", false
	}
	d := decoderPool.Get().(*decoder)
	defer putDecoder(d)
	if d.enter(e) != nil || d.lx.selfClosed {
		return "", false
	}
	for depth := len(d.lx.open); ; {
		tok, err := d.lx.next()
		if err != nil || len(d.lx.open) < depth {
			return "", false
		}
		child := len(d.lx.open) == depth+1 || (d.lx.selfClosed && len(d.lx.open) == depth)
		if tok == tokStart && child && string(localName(d.lx.name)) == name {
			s, _ := d.chars() // parseBody validated the element
			return string(s), true
		}
	}
}

// ParseResponse extracts the result or fault from a response envelope.
func ParseResponse(data []byte) (Response, error) {
	name, kids, err := parseBody(data)
	if err != nil {
		return Response{}, err
	}
	if string(name) == "Fault" {
		detail := child(kids, "detail")
		return Response{Fault: &Fault{
			Code:   child(kids, "faultcode").text(),
			String: child(kids, "faultstring").text(),
			Detail: detail.text(),
		}, detail: detail}, nil
	}
	method, ok := bytes.CutSuffix(name, []byte("Response"))
	if !ok || len(method) == 0 {
		return Response{}, malformed("element %s is not a Response", name)
	}
	return Response{Method: string(method), Return: child(kids, "return")}, nil
}
