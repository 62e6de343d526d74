package soap

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
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
	// travel in the ifsvr document headers. AppendFault sets both, and
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
	action    string // `"NS#method"`, a request's SOAPAction header
}

func newCallSkeleton(serviceNS, elem string) *callSkeleton {
	var ns []byte
	ns = AppendEscaped(ns, serviceNS)
	head := "<m:" + elem + ` xmlns:m="` + string(ns) + `"`
	return &callSkeleton{
		open:      head + ">",
		selfClose: head + "/>",
		close:     "</m:" + elem + ">",
		action:    strconv.Quote(serviceNS + "#" + elem),
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

// walk validates a whole envelope in one pass on d's lexer — it rejects
// exactly the documents the lexer rejects, and those whose root is not
// Envelope, that have no Body, or whose first Body does not hold exactly one
// element — and returns that element's local name. It hands each child
// element of that call element to each, with the lexer on the child's start
// tag and the call's local name as argument; each consumes the child through
// its end tag, and an error from it ends the walk. Namespace prefixes are
// not resolved: SOAP 1.1 RPC dispatch is by local name.
func (d *decoder) walk(data []byte, each func(call []byte) error) (name []byte, err error) {
	lx := &d.lx
	*lx = lexer{data: data, open: lx.open[:0]}
	var (
		inBody, inCall bool // inside the first Body; inside its first child
		bodies, calls  int  // Body elements, children of the first Body
	)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		switch depth := len(lx.open); tok {
		case tokEOF:
			switch {
			case bodies == 0:
				return nil, malformed("no Body element")
			case calls != 1:
				return nil, malformed("Body must contain exactly one element")
			}
			return name, nil
		case tokStart:
			parent := depth // of the element just started
			if !lx.selfClosed {
				parent--
			}
			switch {
			case parent == 0:
				if root := localName(lx.name); string(root) != "Envelope" {
					return nil, malformed("root element is %s, want Envelope", root)
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
				if err := each(name); err != nil {
					return nil, err
				}
			}
		case tokEnd:
			switch depth {
			case 2:
				inCall = false
			case 1:
				inBody = false
			}
		}
	}
}

// element consumes the element whose start tag the lexer just returned and
// returns a handle on its bytes.
func (d *decoder) element() (Element, error) {
	at := d.lx.start
	err := d.skip()
	return d.lx.data[at:d.lx.pos], err
}

// walkElements walks an envelope recording a handle on each child of its
// call element. The decoder is a local, not a pooled one, so the two-pass
// API's allocations do not depend on what the pool keeps.
func walkElements(data []byte) (name []byte, kids []Element, err error) {
	d := decoder{lx: lexer{open: make([][]byte, 0, 8)}} // an envelope of scalars nests five deep
	name, err = d.walk(data, func([]byte) error {
		e, err := d.element()
		kids = append(kids, e)
		return err
	})
	return name, kids, err
}

// ParseRequest extracts the RPC call from a request envelope.
func ParseRequest(data []byte) (Request, error) {
	name, kids, err := walkElements(data)
	if err != nil {
		return Request{}, err
	}
	return Request{Method: string(name), Params: kids}, nil
}

// Call is a request envelope read against the live interface.
type Call struct {
	Method string
	// Args are the parameters decoded against the method's signature,
	// ready to dispatch; nil when Stale is set.
	Args []dyn.Value
	// Stale says why a well-formed call does not fit the interface lookup
	// resolved it against: a "Non existent Method" *Fault when the method
	// is unknown or the number of parameters is wrong, otherwise the
	// DecodeValue error of the first parameter that does not decode as its
	// type.
	Stale error
}

// ParseCall reads a request envelope in the one pass that validates it:
// the method is resolved through lookup once, when the walk reaches its
// first parameter (after the walk, for a call without any), and each
// parameter is decoded in place against its type, exactly as DecodeValue
// would decode it. Only a grammar violation is an error, whatever fits
// before it; a well-formed call that does not fit comes back with Stale
// set. Nothing in the result aliases data.
func ParseCall(data []byte, lookup func(string) (dyn.MethodSig, bool)) (Call, error) {
	d := decoderPool.Get().(*decoder)
	defer putDecoder(d)
	return d.call(data, lookup)
}

func (d *decoder) call(data []byte, lookup func(string) (dyn.MethodSig, bool)) (Call, error) {
	var (
		c     Call
		sig   dyn.MethodSig
		known bool
		n     int // parameters seen
	)
	resolve := func(method []byte) {
		c.Method = string(method)
		if sig, known = lookup(c.Method); known {
			c.Args = make([]dyn.Value, len(sig.Params))
		}
	}
	name, err := d.walk(data, func(method []byte) error {
		if n++; n == 1 {
			resolve(method)
		}
		if !known || n > len(sig.Params) || c.Stale != nil {
			return d.skip()
		}
		var err error
		c.Args[n-1], c.Stale, err = d.try(sig.Params[n-1].Type)
		return err
	})
	if err != nil {
		return Call{}, err
	}
	if n == 0 {
		resolve(name)
	}
	if !known || n != len(sig.Params) {
		c.Stale = &Fault{Code: "soap:Server", String: FaultNonExistentMethod}
	}
	if c.Stale != nil {
		c.Args = nil
	}
	return c, nil
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
	// value is Return decoded in place by parseReply, or misfit why it
	// does not decode.
	value  dyn.Value
	misfit error
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
	_ = d.enter(e) // the walk validated the element
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
			s, _ := d.chars() // the walk validated the element
			return string(s), true
		}
	}
}

// ParseResponse extracts the result or fault from a response envelope.
func ParseResponse(data []byte) (Response, error) {
	name, kids, err := walkElements(data)
	if err != nil {
		return Response{}, err
	}
	return response(name, kids, Response{Return: child(kids, "return")})
}

// parseReply reads a response envelope in the one pass that validates it,
// decoding the first return child of a …Response element in place against
// t, exactly as DecodeValue would decode it; a fault's children are kept as
// handles. Nothing in the result but Return and the fault's detail aliases
// data.
func parseReply(data []byte, t *dyn.Type) (Response, error) {
	d := decoderPool.Get().(*decoder)
	defer putDecoder(d)
	var (
		res  Response
		kids []Element // a fault's children
	)
	name, err := d.walk(data, func(call []byte) error {
		switch {
		case string(call) == "Fault":
			e, err := d.element()
			kids = append(kids, e)
			return err
		case res.Return != nil || string(localName(d.lx.name)) != "return":
			return d.skip()
		}
		at := d.lx.start
		var err error
		res.value, res.misfit, err = d.try(t)
		res.Return = data[at:d.lx.pos]
		return err
	})
	if err != nil {
		return Response{}, err
	}
	return response(name, kids, res)
}

// response completes a walked response envelope whose Body holds the
// element named name: a fault read from its children kids, or res for the
// method a …Response element names.
func response(name []byte, kids []Element, res Response) (Response, error) {
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
	res.Method = string(method)
	return res, nil
}
