// Command go124-atomic-or reproduces a go1.24.0 amd64 miscompile: when
// the result of atomic.OrUint64 is used, the compiler lowers the call to
// a compare-and-swap loop whose scratch register can be the very register
// the allocator just moved a live value into, out of AX. Here that value
// is the data pointer of the string user returned, and the loop overwrites
// it with the word's old bits | bit, so the byte loop faults at the
// address 1<<(seq&63) (addr=0x1 for seq 0).
//
// The benchmark's sink (bench/sink.go, benchSink.record) has the same
// shape; ROADMAP.md tracks the fault there. Run from the repository root:
//
//	go run ./testdata/go124-atomic-or          # go1.24.0: SIGSEGV at addr=0x1
//	go run ./testdata/go124-atomic-or -cas     # compare-and-swap loop: exits 0
//
// Both print "seen 65536 of 65536" and exit 0 on a toolchain without the
// fault. The directory is testdata, so ./... patterns skip it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
)

var (
	users = []string{"alice", "bob", "carol", "dave", "erin"}
	seen  [1 << 10]uint64
	cas   = flag.Bool("cas", false, "set the bits with a compare-and-swap loop instead of atomic.OrUint64")
)

//go:noinline
func user(seq int64) string { return users[seq%int64(len(users))] }

// or is atomic.OrUint64 written as a compare-and-swap loop.
func or(addr *uint64, bit uint64) uint64 {
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return old
		}
	}
}

// record marks every seq seen and sums the bytes of its user; a seq
// already seen counts as a duplicate.
func record(seqs []int64) (n, sum int) {
	for _, seq := range seqs {
		u := user(seq) // returned in AX/BX, live across the Or
		word, bit := seq>>6, uint64(1)<<(seq&63)
		var old uint64
		if *cas {
			old = or(&seen[word], bit)
		} else {
			old = atomic.OrUint64(&seen[word], bit)
		}
		if old&bit != 0 {
			continue
		}
		n++
		for i := 0; i < len(u); i++ {
			sum += int(u[i])
		}
	}
	return n, sum
}

func main() {
	flag.Parse()
	seqs := make([]int64, len(seen)*64)
	want := 0
	for i := range seqs {
		seqs[i] = int64(i)
		for _, c := range []byte(user(int64(i))) {
			want += int(c)
		}
	}
	n, sum := record(seqs)
	fmt.Println("seen", n, "of", len(seqs), "byte sum", sum, "want", want)
	if n != len(seqs) || sum != want {
		os.Exit(1)
	}
}
