package rdd

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// oneByteReader delivers at most one byte per Read — the worst legal
// fragmentation a TCP stream can produce.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func TestReadFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		nil,                                // zero-length frame
		bytes.Repeat([]byte{0xAB}, 70_000), // spans several reads
		{0},
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	// AppendFrame must produce the identical encoding.
	var appended []byte
	for _, p := range payloads {
		appended = AppendFrame(appended, p)
	}
	if !bytes.Equal(appended, buf.Bytes()) {
		t.Fatal("AppendFrame and WriteFrame disagree on the encoding")
	}

	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(buf.Bytes()),
		"one-byte": oneByteReader{bytes.NewReader(buf.Bytes())},
	} {
		for i, want := range payloads {
			got, err := ReadFrame(r, 0)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: got %d bytes, want %d", name, i, len(got), len(want))
			}
		}
		if _, err := ReadFrame(r, 0); err != io.EOF {
			t.Fatalf("%s: at stream end: got %v, want io.EOF", name, err)
		}
	}
}

func TestReadFrameOverPipeAdversarialChunking(t *testing.T) {
	// net.Pipe is fully synchronous: every writer chunk is one reader
	// delivery, so writing byte-by-byte forces ReadFrame to reassemble a
	// frame from 4+N separate reads.
	client, server := net.Pipe()
	payload := []byte("block image bytes spanning many tiny writes")
	go func() {
		frame := AppendFrame(nil, payload)
		for _, b := range frame {
			if _, err := client.Write([]byte{b}); err != nil {
				return
			}
		}
		client.Close()
	}()
	got, err := ReadFrame(server, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}
	if _, err := ReadFrame(server, 0); err != io.EOF {
		t.Fatalf("after close: got %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedPrefix(t *testing.T) {
	// Two of the four prefix bytes, then EOF: a torn write, not a clean end.
	_, err := ReadFrame(bytes.NewReader([]byte{0x05, 0x00}), 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	frame := AppendFrame(nil, bytes.Repeat([]byte{1}, 100))
	for _, cut := range []int{4, 5, 50, 103} {
		_, err := ReadFrame(bytes.NewReader(frame[:cut]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameMidFrameEOFOverPipe(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		frame := AppendFrame(nil, bytes.Repeat([]byte{7}, 1000))
		client.Write(frame[:300]) // connection dies mid-payload
		client.Close()
	}()
	_, err := ReadFrame(server, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameOversizedPrefixRejectedBeforeAllocating(t *testing.T) {
	// A prefix claiming ~1 GiB with only garbage behind it: the limit check
	// must fire before the payload allocation, or a corrupt prefix could OOM
	// the receiver.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x3F // 2^30 - 1
	allocs := testing.AllocsPerRun(10, func() {
		_, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	// The wrapped error itself allocates a handful of small objects; the
	// point is the absence of the ~1 GiB payload buffer, which would show up
	// here as an enormous per-run byte count via test -race/-msan crashes or
	// timeouts. Keep a loose object-count bound as the tripwire.
	if allocs > 10 {
		t.Fatalf("ReadFrame allocated %v objects rejecting an oversized prefix", allocs)
	}
}
