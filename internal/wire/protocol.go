// Package wire implements the mindgap request protocol that live-mode
// clients, the dispatcher and workers exchange inside kernel UDP datagrams
// (the paper's systems speak UDP, §3.4.2), and the MAC address type the
// simulated NIC steers by.
//
// Decoding fills a caller-owned Header and the payload slice aliases the
// input buffer, so steady-state parsing performs no allocations.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("wire: buffer too short")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrBadLength   = errors.New("wire: length field inconsistent")
)

// MAC is a 48-bit Ethernet address. The SmartNIC steers frames by
// destination MAC: each SR-IOV virtual function (one per worker) and the
// dispatcher own distinct addresses (§3.4.2).
type MAC [6]byte

// String formats the address in the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Version is the mindgap protocol version carried in every header.
const Version = 1

// MsgType distinguishes the messages of the dispatcher/worker/client
// protocol (§3.4: request hand-off, completion/preemption notifications
// and responses).
type MsgType uint8

// Protocol message types.
const (
	// MsgInvalid is the zero value; it never appears on the wire.
	MsgInvalid MsgType = iota
	// MsgRequest is a client request entering the system.
	MsgRequest
	// MsgAssign carries a request from the dispatcher to a worker.
	MsgAssign
	// MsgFinish tells the dispatcher a worker completed a request.
	MsgFinish
	// MsgPreempted tells the dispatcher a worker preempted a request; the
	// request re-enters the tail of the central queue (§3.4.1).
	MsgPreempted
	// MsgResponse is the worker's reply to the client.
	MsgResponse
	// MsgHello registers a worker with the dispatcher (live mode).
	MsgHello
	msgTypeCount // sentinel
)

var msgTypeNames = [...]string{
	"invalid", "request", "assign", "finish", "preempted", "response", "hello",
}

// String returns the lowercase message-type name.
func (m MsgType) String() string {
	if int(m) < len(msgTypeNames) {
		return msgTypeNames[m]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(m))
}

// Valid reports whether m is a defined, transmittable message type.
func (m MsgType) Valid() bool { return m > MsgInvalid && m < msgTypeCount }

// HeaderSize is the encoded size of a protocol header.
const HeaderSize = 32

// Header is the fixed-size mindgap application header. All multi-byte
// fields are big-endian.
//
// Layout:
//
//	offset size field
//	0      1    Version
//	1      1    Type
//	2      2    Flags (ASSIGN: the attempt number; FINISH/PREEMPTED echo it)
//	4      8    ReqID
//	12     4    ClientID
//	16     4    WorkerID
//	20     4    ServiceNS
//	24     4    RemainingNS
//	28     2    PayloadLen
//	30     2    Checksum (RFC 1071 over header with field zeroed)
type Header struct {
	Type  MsgType
	Flags uint16
	// ReqID identifies the request across its whole lifetime, including
	// across preemptions and reassignment to a different worker.
	ReqID uint64
	// ClientID routes the response back to the issuing client.
	ClientID uint32
	// WorkerID names the worker a message is addressed to or comes from.
	WorkerID uint32
	// ServiceNS is the synthetic service time in nanoseconds — the "fake
	// work that keeps the server busy for a specific amount of time" (§4.1).
	ServiceNS uint32
	// RemainingNS is the unfinished portion of a preempted request.
	RemainingNS uint32
	// PayloadLen is the number of payload bytes following the header.
	PayloadLen uint16
}

// MarshalTo writes the header into b (>= HeaderSize bytes).
func (h *Header) MarshalTo(b []byte) error {
	if len(b) < HeaderSize {
		return ErrShortBuffer
	}
	b[0] = Version
	b[1] = byte(h.Type)
	binary.BigEndian.PutUint16(b[2:4], h.Flags)
	binary.BigEndian.PutUint64(b[4:12], h.ReqID)
	binary.BigEndian.PutUint32(b[12:16], h.ClientID)
	binary.BigEndian.PutUint32(b[16:20], h.WorkerID)
	binary.BigEndian.PutUint32(b[20:24], h.ServiceNS)
	binary.BigEndian.PutUint32(b[24:28], h.RemainingNS)
	binary.BigEndian.PutUint16(b[28:30], h.PayloadLen)
	binary.BigEndian.PutUint16(b[30:32], 0)
	binary.BigEndian.PutUint16(b[30:32], internetChecksum(b[:HeaderSize]))
	return nil
}

// Unmarshal parses and validates the header from b.
func (h *Header) Unmarshal(b []byte) error {
	if len(b) < HeaderSize {
		return ErrShortBuffer
	}
	if b[0] != Version {
		return ErrBadVersion
	}
	if internetChecksum(b[:HeaderSize]) != 0 {
		return ErrBadChecksum
	}
	h.Type = MsgType(b[1])
	if !h.Type.Valid() {
		return fmt.Errorf("wire: invalid message type %d", b[1])
	}
	h.Flags = binary.BigEndian.Uint16(b[2:4])
	h.ReqID = binary.BigEndian.Uint64(b[4:12])
	h.ClientID = binary.BigEndian.Uint32(b[12:16])
	h.WorkerID = binary.BigEndian.Uint32(b[16:20])
	h.ServiceNS = binary.BigEndian.Uint32(b[20:24])
	h.RemainingNS = binary.BigEndian.Uint32(b[24:28])
	h.PayloadLen = binary.BigEndian.Uint16(b[28:30])
	return nil
}

// internetChecksum is the RFC 1071 ones-complement sum. Computing it over a
// header whose checksum field holds the transmitted checksum yields zero.
func internetChecksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Datagram encoding: header + payload, the format live mode sends inside a
// kernel UDP socket (the kernel supplies Ethernet/IP/UDP).

// EncodeDatagram appends the encoded header and payload to dst and returns
// the extended slice. h.PayloadLen is set from payload.
func EncodeDatagram(dst []byte, h *Header, payload []byte) ([]byte, error) {
	if len(payload) > 0xffff {
		return dst, ErrBadLength
	}
	h.PayloadLen = uint16(len(payload))
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	if err := h.MarshalTo(dst[off:]); err != nil {
		return dst[:off], err
	}
	return append(dst, payload...), nil
}

// DecodeDatagram parses a datagram produced by EncodeDatagram. The returned
// payload aliases b; callers that retain it past the buffer's reuse must
// copy.
func DecodeDatagram(b []byte, h *Header) (payload []byte, err error) {
	if err := h.Unmarshal(b); err != nil {
		return nil, err
	}
	if len(b) < HeaderSize+int(h.PayloadLen) {
		return nil, ErrBadLength
	}
	return b[HeaderSize : HeaderSize+int(h.PayloadLen)], nil
}
