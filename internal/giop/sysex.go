package giop

import (
	"encoding/binary"
	"fmt"

	"livedev/internal/cdr"
)

// SystemException is a CORBA system exception as carried in a
// SYSTEM_EXCEPTION reply body: repository id, minor code, completion
// status. The SDE maps a call to a method missing from the live interface
// onto BAD_OPERATION — CORBA's "Non Existent Method" — after forcing the
// published IDL current (paper Section 5.7).
type SystemException struct {
	RepoID    string
	Minor     uint32
	Completed CompletionStatus
}

// CompletionStatus says how far the operation got before the exception.
type CompletionStatus uint32

// CORBA completion status values.
const (
	CompletedYes   CompletionStatus = 0
	CompletedNo    CompletionStatus = 1
	CompletedMaybe CompletionStatus = 2
)

// Standard repository IDs for the exceptions the SDE raises.
const (
	RepoBadOperation   = "IDL:omg.org/CORBA/BAD_OPERATION:1.0"
	RepoMarshal        = "IDL:omg.org/CORBA/MARSHAL:1.0"
	RepoObjectNotExist = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
)

// Error implements error.
func (se *SystemException) Error() string {
	return fmt.Sprintf("CORBA system exception %s (minor=%d, completed=%d)", se.RepoID, se.Minor, se.Completed)
}

// Encode writes the exception body (repo id, minor, completion status).
func (se *SystemException) Encode(e *cdr.Encoder) error {
	e.WriteString(se.RepoID)
	e.WriteULong(se.Minor)
	e.WriteULong(uint32(se.Completed))
	return nil
}

// DecodeSystemException reads a system-exception reply body.
func DecodeSystemException(d *cdr.Decoder) (*SystemException, error) {
	id, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("giop: system exception id: %w", err)
	}
	minor, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: system exception minor: %w", err)
	}
	completed, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: system exception completion: %w", err)
	}
	return &SystemException{RepoID: id, Minor: minor, Completed: CompletionStatus(completed)}, nil
}

// DocContextID tags the reply service context in which a BAD_OPERATION reply
// carries the interface document the server's forced publication committed
// (Section 5.7). It is a vendor id: "LD", then 1.
const DocContextID uint32 = 0x4C440001

// DocContext is the interface document a stale reply carries: the Interface
// Server's four counters for it, and its text.
type DocContext struct {
	Version, DescriptorVersion, Epoch, Generation uint64
	Text                                          string
}

// Context encodes dc as a DocContextID service context: an encapsulation in
// the given byte order of the four counters, each an unsigned long long, and
// the text as a string, as encode writes it.
func (dc DocContext) Context(order cdr.ByteOrder) ServiceContext {
	e := cdr.NewEncoder(order)
	dc.encode(e)
	return ServiceContext{ID: DocContextID, Data: e.Bytes()[8:]} // past the id and the length
}

// encode writes dc into e as a DocContextID service context, its
// encapsulation in e's byte order and in place: the flag octet, seven
// octets of padding that align the four counters (each an unsigned long
// long) to 8 from the flag, then the text as a string. Those offsets are
// fixed within the encapsulation, which starts 4-aligned after its length,
// so the text's length lands 4-aligned in e too and needs no padding.
func (dc *DocContext) encode(e *cdr.Encoder) {
	var head [8 + 4*8]byte
	head[0] = byte(e.Order())
	for i, v := range [...]uint64{dc.Version, dc.DescriptorVersion, dc.Epoch, dc.Generation} {
		if e.Order() == cdr.LittleEndian { // not Binary(): through its interface, head escapes
			binary.LittleEndian.PutUint64(head[8+8*i:], v)
		} else {
			binary.BigEndian.PutUint64(head[8+8*i:], v)
		}
	}
	e.WriteULong(DocContextID)
	e.WriteULong(uint32(len(head) + 4 + len(dc.Text) + 1))
	e.WriteOctets(head[:])
	e.WriteString(dc.Text)
}

// ParseDocContext decodes a DocContextID service context. It refuses a
// context with another id, and one that is truncated, pads with anything
// but zeros, or leaves octets over: what it accepts, Context re-encodes
// byte for byte.
func ParseDocContext(sc ServiceContext) (DocContext, error) {
	if sc.ID != DocContextID {
		return DocContext{}, fmt.Errorf("giop: service context %#x is not a document", sc.ID)
	}
	d, err := cdr.NewEncapsulationDecoder(sc.Data)
	if err != nil {
		return DocContext{}, fmt.Errorf("giop: document context: %w", err)
	}
	var dc DocContext
	for _, dst := range [...]*uint64{&dc.Version, &dc.DescriptorVersion, &dc.Epoch, &dc.Generation} {
		if err = zeroPadding(d, 8); err == nil {
			*dst, err = d.ReadULongLong()
		}
		if err != nil {
			return DocContext{}, fmt.Errorf("giop: document context: %w", err)
		}
	}
	if dc.Text, err = d.ReadString(); err != nil {
		return DocContext{}, fmt.Errorf("giop: document context: %w", err)
	}
	if d.Remaining() != 0 {
		return DocContext{}, fmt.Errorf("giop: document context: %d octets left over", d.Remaining())
	}
	return dc, nil
}
