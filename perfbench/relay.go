package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
)

// frameCounter counts wire frames in a byte stream by their 4-byte
// big-endian length prefix (DESIGN.md §6): a frame is the prefix plus the
// body it announces. Bytes may arrive split anywhere.
type frameCounter struct {
	hdr    [4]byte
	hdrLen int   // prefix bytes seen of the frame in progress
	body   int64 // body bytes still to skip
	frames int64
	bytes  int64 // whole frames' bytes, prefixes included
}

// feed consumes the next chunk of the stream.
func (fc *frameCounter) feed(p []byte) {
	for len(p) > 0 {
		if fc.body > 0 {
			n := min(int64(len(p)), fc.body)
			fc.body -= n
			p = p[n:]
			if fc.body == 0 {
				fc.frames++
			}
			continue
		}
		k := copy(fc.hdr[fc.hdrLen:], p)
		fc.hdrLen += k
		p = p[k:]
		if fc.hdrLen < 4 {
			return
		}
		fc.hdrLen = 0
		fc.body = int64(binary.BigEndian.Uint32(fc.hdr[:]))
		fc.bytes += 4 + fc.body
		if fc.body == 0 {
			fc.frames++
		}
	}
}

// relay sits between the joins and the serve on loopback and counts the
// frames and bytes each direction carries. Every accepted join connection
// gets its own connection to the serve; the relay adds one hop of latency
// and changes nothing in the bytes.
type relay struct {
	ln       net.Listener
	upstream string
	tr       *tracer
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
}

func newRelay(upstream string, tr *tracer) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, upstream: upstream, tr: tr}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		join, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		serve, err := net.Dial("tcp", r.upstream)
		if err != nil {
			join.Close() // the join sees its dial fail, as it would without the relay
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, join, serve)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(serve, join, &r.tr.framesDown, &r.tr.bytesDown)
		go r.pipe(join, serve, &r.tr.framesUp, &r.tr.bytesUp)
	}
}

// pipe copies src to dst, counting frames; when either side ends it closes
// both, so the peer sees the end exactly as on a direct connection.
func (r *relay) pipe(src, dst net.Conn, frames, bytes *atomic.Int64) {
	defer r.wg.Done()
	var fc frameCounter
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			fc.feed(buf[:n])
			if _, werr := dst.Write(buf[:n]); werr != nil {
				err = werr
			}
		}
		if err != nil {
			src.Close()
			dst.Close()
			break
		}
	}
	frames.Add(fc.frames)
	bytes.Add(fc.bytes)
}

// close stops accepting, closes every relayed connection and waits for the
// relay's goroutines to end.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
