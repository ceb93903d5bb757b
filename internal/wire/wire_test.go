package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC.String() = %q", got)
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example bytes.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd length: final byte padded on the right.
	odd := []byte{0x01}
	if got := internetChecksum(odd); got != ^uint16(0x0100) {
		t.Fatalf("odd checksum = %#04x", got)
	}
}

func TestMsgTypeStringAndValid(t *testing.T) {
	if MsgRequest.String() != "request" || MsgPreempted.String() != "preempted" {
		t.Fatal("message type names wrong")
	}
	if MsgInvalid.Valid() {
		t.Fatal("MsgInvalid reported valid")
	}
	if MsgType(7).Valid() {
		t.Fatal("retired type 7 (load info) reported valid")
	}
	if MsgType(200).Valid() {
		t.Fatal("out-of-range type reported valid")
	}
	if MsgType(200).String() == "" {
		t.Fatal("out-of-range String empty")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Type: MsgAssign, Flags: 0x0102, ReqID: 0xdeadbeefcafef00d,
		ClientID: 7, WorkerID: 3, ServiceNS: 5000, RemainingNS: 1200,
	}
	buf := make([]byte, HeaderSize)
	if err := h.MarshalTo(buf); err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	h := Header{Type: MsgRequest, ReqID: 1, ServiceNS: 1000}
	buf := make([]byte, HeaderSize)
	_ = h.MarshalTo(buf)
	for i := 0; i < HeaderSize; i++ {
		corrupted := append([]byte(nil), buf...)
		corrupted[i] ^= 0x5a
		var got Header
		if err := got.Unmarshal(corrupted); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestHeaderRejectsBadVersionAndType(t *testing.T) {
	h := Header{Type: MsgRequest}
	buf := make([]byte, HeaderSize)
	_ = h.MarshalTo(buf)
	bad := append([]byte(nil), buf...)
	bad[0] = 99
	var got Header
	if err := got.Unmarshal(bad); err != ErrBadVersion && err != ErrBadChecksum {
		t.Fatalf("bad version error = %v", err)
	}
	// An invalid type with a recomputed checksum must still be rejected.
	h2 := Header{Type: MsgType(250)}
	_ = h2.MarshalTo(buf)
	if err := got.Unmarshal(buf); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	h := Header{Type: MsgResponse, ReqID: 99, ClientID: 1}
	payload := []byte("hello mindgap")
	dg, err := EncodeDatagram(nil, &h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg) != HeaderSize+len(payload) {
		t.Fatalf("datagram size = %d", len(dg))
	}
	var got Header
	p, err := DecodeDatagram(dg, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload) {
		t.Fatalf("payload = %q", p)
	}
	if got.ReqID != 99 || got.Type != MsgResponse || got.PayloadLen != uint16(len(payload)) {
		t.Fatalf("header = %+v", got)
	}
}

func TestDatagramTruncatedPayload(t *testing.T) {
	h := Header{Type: MsgResponse, ReqID: 99}
	dg, _ := EncodeDatagram(nil, &h, []byte("0123456789"))
	var got Header
	if _, err := DecodeDatagram(dg[:HeaderSize+4], &got); err != ErrBadLength {
		t.Fatalf("truncated payload error = %v, want ErrBadLength", err)
	}
}

// Property: any header round-trips exactly through marshal/unmarshal.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(typ uint8, flags uint16, reqID uint64, client, worker, svc, rem uint32) bool {
		h := Header{
			Type:  MsgType(typ%uint8(msgTypeCount-1) + 1), // always valid
			Flags: flags, ReqID: reqID, ClientID: client, WorkerID: worker,
			ServiceNS: svc, RemainingNS: rem,
		}
		var buf [HeaderSize]byte
		if err := h.MarshalTo(buf[:]); err != nil {
			return false
		}
		var got Header
		if err := got.Unmarshal(buf[:]); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeDatagram never panics on arbitrary input — it returns an
// error for everything malformed.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		var h Header
		_, _ = DecodeDatagram(data, &h)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single bit of a valid datagram either fails to
// decode or — when the flip lands in the payload bytes, which the header
// checksum does not cover — decodes with only the payload changed.
func TestQuickBitFlipDetection(t *testing.T) {
	base := Header{Type: MsgRequest, ReqID: 7, ServiceNS: 1000}
	valid, err := EncodeDatagram(nil, &base, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(valid)*8; bit++ {
		corrupted := append([]byte(nil), valid...)
		corrupted[bit/8] ^= 1 << (bit % 8)
		var h Header
		_, err := DecodeDatagram(corrupted, &h)
		switch {
		case err != nil:
			// rejected: fine
		case bit/8 < HeaderSize:
			t.Fatalf("undetected header corruption at bit %d (byte %d)", bit, bit/8)
		case h != base:
			t.Fatalf("payload flip at bit %d changed the header: %+v", bit, h)
		}
	}
}
