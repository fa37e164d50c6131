package server

import (
	"net"
	"time"
)

// The connection path. Every accepted connection gets one goroutine that does
// everything between the socket and the commit: it blocks in Read (the Go
// runtime parks it on its network poller, which is epoll/kqueue underneath), parses
// complete frames in place out of its own buffer, executes each frame of the
// read in order, and flushes the responses once per read.
// Nothing is handed to another goroutine, so there is no queue, lock or
// ordering protocol between reading a request and writing its response, and
// what a connection can hold in memory is bounded by one read's worth of
// frames; the kernel's socket buffers are the back-pressure on a client that
// pipelines faster than the server executes. Overload is the scheduler's to
// refuse: a request that finds its queues full gets a typed queue-full frame.

// conn is one client connection. Only its own goroutine touches wbuf.
type conn struct {
	s    *Server
	nc   net.Conn
	wbuf []byte // framed responses not yet written
}

// serve is the connection's goroutine.
func (c *conn) serve() {
	s := c.s
	defer s.wg.Done()
	defer c.close()
	buf := make([]byte, connBuf)
	n := 0              // buf[:n] is an incomplete frame carried over from earlier reads
	var frames [][]byte // the current read's complete frames, aliasing buf
	wait := true        // the next read starts the wait for a new frame
	for {
		// The idle clock runs from the last complete frame, so it bounds both
		// a silent peer and one that stalls (or trickles) mid-frame. It is
		// armed only here, while waiting to read: a connection whose requests
		// are executing is not idle however long they take.
		if wait && s.IdleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		m, err := c.nc.Read(buf[n:])
		n += m
		var consumed int
		var perr error
		frames, consumed, perr = parseFrames(frames[:0], buf[:n])
		wait = len(frames) > 0
		if wait && !c.serveFrames(frames) {
			return
		}
		if err != nil || perr != nil {
			// EOF, reset, idle timeout, or a length prefix over maxFrame: the
			// byte stream is gone or no longer trustworthy.
			return
		}
		buf, n = carry(buf, consumed, n)
	}
}

func (c *conn) close() {
	s := c.s
	c.nc.Close()
	s.mu.Lock()
	delete(s.open, c)
	s.mu.Unlock()
}

// parseFrames extracts complete length-prefixed frames from data as
// subslices (zero-copy), reusing dst as the slice-header scratch. consumed
// is the byte count covered by the returned frames.
func parseFrames(dst [][]byte, data []byte) (frames [][]byte, consumed int, err error) {
	frames = dst
	for {
		frame, ok, err := cutFrame(data[consumed:])
		if !ok {
			return frames, consumed, err
		}
		frames = append(frames, frame)
		consumed += 4 + len(frame)
	}
}

// serveFrames answers one read's worth of complete frames, in order: execute
// each frame and append its response, writing once at the end — a client that
// pipelines K requests gets its K responses in one write. The frames alias the
// read buffer, which is not written again until serveFrames returns. It
// reports false when the connection must close.
func (c *conn) serveFrames(frames [][]byte) bool {
	s := c.s
	for _, frame := range frames {
		c.wbuf = appendFrame(c.wbuf, func(b []byte) []byte { return s.respond(b, frame) })
		// A peer that does not read its responses must not make them pile up
		// here: past connBuf they go to the socket, where WriteTimeout bounds
		// how long a full send buffer can hold this goroutine.
		if len(c.wbuf) >= connBuf && c.flush() != nil {
			return false
		}
	}
	return c.flush() == nil
}

// flush writes the buffered responses. The buffer's array is kept for the
// next read unless one oversized response grew it.
func (c *conn) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if wt := c.s.WriteTimeout; wt > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := c.nc.Write(c.wbuf)
	if cap(c.wbuf) > 4*connBuf {
		c.wbuf = nil
	} else {
		c.wbuf = c.wbuf[:0]
	}
	return err
}

// respond executes one frame and appends the response payload to b. A
// single-Get script whose key sits in the hot-key cache is answered from it,
// without a transaction. A malformed payload inside a well-delimited frame
// (frame boundaries are still in sync) gets a typed error frame, and the
// connection survives.
func (s *Server) respond(b, frame []byte) []byte {
	if resp, ok := s.cachedGet(b, frame); ok {
		return resp
	}
	resp, err := s.dispatch(b, frame)
	if err != nil {
		resp = encodeResults(b, statusError, err.Error(), nil)
	}
	return resp
}

// cachedGet answers a single-op Get script whose key is resident in the
// hot-key cache (served at the newest committed version without entering a
// scheduler core). frame aliases the read buffer; the response is fully
// encoded before return, so nothing escapes. It reports false — falling
// through to the full path — for anything else, including malformed scripts,
// so it can never mask a typed error.
func (s *Server) cachedGet(b, frame []byte) ([]byte, bool) {
	if len(frame) < 2 || frame[0] != reqTxn {
		return nil, false
	}
	r := &reader{frame[2:]} // skip kind + priority
	nops, err := r.uvarint()
	if err != nil || nops != 1 {
		return nil, false
	}
	op, err := r.u8()
	if err != nil || op != opGet {
		return nil, false
	}
	table, err := r.str()
	if err != nil {
		return nil, false
	}
	index, err := r.bytes()
	if err != nil || len(index) != 0 {
		return nil, false
	}
	key, err := r.bytes()
	if err != nil {
		return nil, false
	}
	if _, err := r.bytes(); err != nil { // value (unused for Get)
		return nil, false
	}
	if _, err := r.uvarint(); err != nil || !r.empty() { // limit + exact length
		return nil, false
	}
	v, ok := s.db.CachedGet(table, key)
	if !ok {
		return nil, false
	}
	res := [1]OpResult{{Status: statusOK, Value: v}}
	return encodeResults(b, statusOK, "", res[:]), true
}
