package main

import (
	"bufio"
	"net"
	"os"
	"strconv"
	"strings"
)

// tcpConnections counts the established connections that the replicas'
// listeners accepted, read from /proc/net/tcp, or returns -1 where that
// table is not available.
func tcpConnections(r *rig) int {
	if r.tcp == nil {
		return 0
	}
	ports := map[uint64]bool{}
	for _, rep := range r.reps {
		addr, ok := r.tcp.Lookup(rep.node.id)
		if !ok {
			return -1
		}
		_, port, err := net.SplitHostPort(addr)
		if err != nil {
			return -1
		}
		p, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return -1
		}
		ports[p] = true
	}
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		return -1
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		// sl local_address rem_address st ...; addresses are HEXIP:HEXPORT
		// and state 01 is ESTABLISHED.
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || fields[3] != "01" {
			continue
		}
		_, port, ok := strings.Cut(fields[1], ":")
		if !ok {
			continue
		}
		if p, err := strconv.ParseUint(port, 16, 16); err == nil && ports[p] {
			n++
		}
	}
	if sc.Err() != nil {
		return -1
	}
	return n
}
