package main

import (
	"strings"
	"testing"
)

func TestParseUDPDrops(t *testing.T) {
	const table = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  101: 0100007F:A1B2 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 4001 2 0000000000000000 7
  102: 0100007F:A1B3 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 4002 2 0000000000000000 5
  103: 00000000:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 4003 2 0000000000000000 900
`
	got, err := parseUDPDrops(strings.NewReader(table), map[int]bool{0xA1B2: true, 0xA1B3: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("drops = %d, want 12 (the port-53 socket is not ours)", got)
	}
	if _, err := parseUDPDrops(strings.NewReader("sl local_address\n"), nil); err == nil {
		t.Error("a table without a drops column was accepted")
	}
}

// TestKernelDropsOfOwnSockets reads the live table for a cluster's own
// sockets: a fresh UDP cluster has dropped nothing.
func TestKernelDropsOfOwnSockets(t *testing.T) {
	c, err := buildCluster(workload{name: "test", n: 2, net: netUDP}, 1, t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	if len(c.ports()) != 2 {
		t.Fatalf("ports = %v, want 2", c.ports())
	}
	if _, err := udpKernelDrops(c.ports()); err != nil {
		t.Skipf("kernel UDP table unreadable here: %v", err)
	}
}
