package parallel

import "sync/atomic"

// WriteMin32 atomically sets *addr = min(*addr, val) and reports whether
// the write happened (val was strictly smaller). This is the
// "priority write" used by deterministic reservations: concurrent
// writers race, but the final value is always the minimum, independent
// of scheduling — the arbitrary-CRCW-write of the paper's model made
// deterministic.
func WriteMin32(addr *int32, val int32) bool {
	for {
		old := atomic.LoadInt32(addr)
		if old <= val {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, old, val) {
			return true
		}
	}
}
