package core

import (
	"sort"
	"sync"

	"livedev/internal/dyn"
)

// Binding is the server half of one RMI technology integrated into the SDE
// — the seam that makes a new technology a registry entry instead of a
// cross-cutting edit. Serve builds the technology's subsystem (the Figure
// 4/5 shape) for one managed class around a ClassServer, which is where
// everything the paper prescribes lives. What is left for a binding to
// supply:
//
//   - a document generator (GenerateFunc), handed to Manager.NewClassServer
//     with the document's path and content type;
//   - a codec. An HTTP binding hands an HTTPCodec to ClassServer.MountCalls:
//     a Decode that reads one request against the live interface it is
//     handed, and an Encode that renders the Reply in the technology's
//     wire vocabulary. A binding with a listener of its own (CORBA's ORB,
//     h2b's mux), released through ClassServer.OnClose, passes a Resolve
//     per request to ClassServer.Call and renders the Reply itself.
//
// What it can no longer get wrong, because it no longer does it: publishing
// the basic description at registration (Manager.Register does, once Serve
// returns), refusing calls until the instance exists, allowing only one
// instance, resolving against the live interface rather than a cached one,
// holding the read gate through the method body, checking the request
// context before dispatch, forcing publication before "non-existent method"
// (and not under the ActivePublishingOnly ablation), counting outcomes, and
// unmounting, unpublishing and unregistering on Close; and on the shared
// HTTP endpoint, refusing what is not a POST, capping and pooling the
// request body and writing each reply once with its length declared.
type Binding interface {
	// Name is the technology name servers and clients resolve ("SOAP",
	// "CORBA", "JSON", ...). Names are case-sensitive and process-wide.
	Name() string
	// Serve deploys class as a live server of this technology under m.
	Serve(m *Manager, class *dyn.Class) (Server, error)
}

var (
	bindingMu sync.RWMutex
	bindings  = make(map[string]Binding)
)

// RegisterBinding adds (or replaces) a server binding in the process-wide
// registry. Manager.Register resolves technologies against it.
func RegisterBinding(b Binding) {
	if b == nil || b.Name() == "" {
		panic("core: binding needs a name")
	}
	bindingMu.Lock()
	bindings[b.Name()] = b
	bindingMu.Unlock()
}

// LookupBinding returns the named server binding.
func LookupBinding(name string) (Binding, bool) {
	bindingMu.RLock()
	defer bindingMu.RUnlock()
	b, ok := bindings[name]
	return b, ok
}

// BindingNames returns the registered technology names, sorted.
func BindingNames() []string {
	bindingMu.RLock()
	names := make([]string, 0, len(bindings))
	for n := range bindings {
		names = append(names, n)
	}
	bindingMu.RUnlock()
	sort.Strings(names)
	return names
}

// The built-in SOAP and CORBA bindings register themselves through the same
// seam third-party technologies use; nothing in the dispatch path knows
// them specially.
func init() {
	RegisterBinding(soapBinding{})
	RegisterBinding(corbaBinding{})
}

type soapBinding struct{}

func (soapBinding) Name() string { return string(TechSOAP) }
func (soapBinding) Serve(m *Manager, class *dyn.Class) (Server, error) {
	return newSOAPServer(m, class)
}

type corbaBinding struct{}

func (corbaBinding) Name() string { return string(TechCORBA) }
func (corbaBinding) Serve(m *Manager, class *dyn.Class) (Server, error) {
	return newCORBAServer(m, class)
}
