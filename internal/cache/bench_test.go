package cache

import (
	"testing"

	"dbisim/internal/addr"
	"dbisim/internal/config"
)

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(config.CacheParams{
		SizeBytes: 2 << 20, Ways: 16, BlockSize: 64,
		TagLatency: 10, DataLatency: 24, SerialTagData: true,
		Replacement: config.ReplTADIP,
	}, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkAccessHit measures the demand-hit path.
func BenchmarkAccessHit(b *testing.B) {
	c := benchCache(b)
	for i := 0; i < 1024; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.BlockAddr(i&1023), 0)
	}
}

// BenchmarkInsertEvict measures the fill+eviction path under pressure.
func BenchmarkInsertEvict(b *testing.B) {
	c := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(addr.BlockAddr(i*13), 0, i&1 == 0)
	}
}

// BenchmarkLookup measures the pure branchless tag probe: a full-set
// scan over the dense addr/gen columns with no replacement update.
func BenchmarkLookup(b *testing.B) {
	c := benchCache(b)
	blocks := c.Params().Blocks()
	for i := 0; i < blocks; i++ {
		c.Insert(addr.BlockAddr(i), 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addr.BlockAddr((i * 37) & (blocks - 1)))
	}
}

// BenchmarkMSHRRegisterComplete measures the miss-file probe over the
// dense key column: register a miss, merge a second waiter, complete.
func BenchmarkMSHRRegisterComplete(b *testing.B) {
	m := NewMSHR(32)
	wake := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i&1023) | 1
		m.Register(k, wake)
		m.Register(k, wake)
		m.Complete(k)
	}
}

// BenchmarkDirtyInLowRanks measures the VWQ Set State Vector query on a
// full, one-quarter-dirty TA-DIP cache with shuffled recency: the
// two-deep low-rank test VWQ runs for each row-mate of a dirty victim.
func BenchmarkDirtyInLowRanks(b *testing.B) {
	c := benchCache(b)
	blocks := c.Params().Blocks()
	for i := 0; i < blocks; i++ {
		c.Insert(addr.BlockAddr(i), 0, i%4 == 0)
	}
	for i := 0; i < blocks; i++ {
		c.Access(addr.BlockAddr((i*7919)&(blocks-1)), 0)
	}
	sets := c.Sets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = c.DirtyInLowRanks(i&(sets-1), 2)
	}
}

// sinkBool keeps benchmarked results live.
var sinkBool bool
