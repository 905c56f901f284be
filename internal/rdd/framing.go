package rdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Length-prefixed frames are the streamed counterpart of the engine's block
// codecs: a BinaryRecord/PackedRows block is a self-contained []byte, and a
// frame is that block preceded by a u32 little-endian byte count. The TCP
// transport carries every request and response as one frame, with the
// torn-input detection below: a reader that got fewer bytes than the prefix
// promised reports io.ErrUnexpectedEOF instead of handing a truncated block
// to the decoders (which assume a complete slice).

// DefaultMaxFrame caps how large a frame a reader will accept (1 GiB). The
// cap is checked before allocating, so a corrupt or adversarial length prefix
// cannot make the receiver allocate unbounded memory.
const DefaultMaxFrame = 1 << 30

// ErrFrameTooLarge is returned (wrapped) when a frame's length prefix exceeds
// the reader's limit. Callers detect it with errors.Is.
var ErrFrameTooLarge = errors.New("rdd: frame exceeds size limit")

// AppendFrame appends payload as one length-prefixed frame to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// WriteFrame writes payload to w as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r, tolerating arbitrarily
// fragmented reads (io.ReadFull semantics). A length prefix above max is
// rejected with ErrFrameTooLarge before any allocation. Clean EOF at a frame
// boundary returns io.EOF; EOF inside the prefix or the payload returns
// io.ErrUnexpectedEOF, so a truncated stream is never mistaken for a shorter
// valid one.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("rdd: truncated frame length prefix: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, max)
	}
	if n == 0 {
		return nil, nil
	}
	payload := make([]byte, n)
	if got, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("rdd: frame truncated at %d of %d payload bytes: %w", got, n, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	return payload, nil
}
