package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps the listener handed to the netcluster master
// and counts what crosses its accepted connections: bytes the master
// reads (worker requests and results), bytes it writes (setup broadcast
// and tasks), and Write calls (one per gob message flush).
type countingListener struct {
	net.Listener
	bytesRead, bytesWritten, writes atomic.Int64
}

type wireCounts struct{ bytesRead, bytesWritten, writes int64 }

func (l *countingListener) counts() wireCounts {
	return wireCounts{l.bytesRead.Load(), l.bytesWritten.Load(), l.writes.Load()}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytesRead.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytesWritten.Add(int64(n))
	c.l.writes.Add(1)
	return n, err
}
