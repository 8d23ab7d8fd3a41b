package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// procNetUDP is the kernel's IPv4 UDP socket table; its last column
// counts the datagrams the kernel dropped for each socket, mostly on a
// full receive buffer. The transport cannot see those losses, so the
// benchmark counts them from outside.
const procNetUDP = "/proc/net/udp"

// udpKernelDrops sums the drops column of procNetUDP over the sockets
// bound to ports.
func udpKernelDrops(ports map[int]bool) (uint64, error) {
	f, err := os.Open(procNetUDP)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseUDPDrops(f, ports)
}

// parseUDPDrops reads a /proc/net/udp table and sums the drops of the
// rows whose local port is in ports.
func parseUDPDrops(r io.Reader, ports map[int]bool) (uint64, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return 0, fmt.Errorf("%s: empty table", procNetUDP)
	}
	header := strings.Fields(sc.Text())
	if len(header) == 0 || header[len(header)-1] != "drops" {
		return 0, fmt.Errorf("%s: no drops column in header %q", procNetUDP, sc.Text())
	}
	var total uint64
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		_, portHex, ok := strings.Cut(f[1], ":")
		if !ok {
			return 0, fmt.Errorf("%s: bad local address %q", procNetUDP, f[1])
		}
		port, err := strconv.ParseUint(portHex, 16, 16)
		if err != nil {
			return 0, fmt.Errorf("%s: bad port in %q: %w", procNetUDP, f[1], err)
		}
		if !ports[int(port)] {
			continue
		}
		drops, err := strconv.ParseUint(f[len(f)-1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: bad drops field %q: %w", procNetUDP, f[len(f)-1], err)
		}
		total += drops
	}
	return total, sc.Err()
}
