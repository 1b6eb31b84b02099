// Package cache implements a trace-driven set-associative cache simulator in
// the mould of DineroIV: configurable geometry, replacement and write
// policies, optional second level, per-set statistics, three-C miss
// classification, and per-line ownership tracking so that evictions can be
// attributed to the program variables that caused them (the paper's
// "conflicts between program structures").
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// ReplPolicy selects the victim within a set.
type ReplPolicy int

// Replacement policies.
const (
	// ReplLRU evicts the least recently used line (DineroIV's -rl).
	ReplLRU ReplPolicy = iota
	// ReplFIFO evicts the oldest-filled line (-rf).
	ReplFIFO
	// ReplRandom evicts a pseudo-random line (-rr).
	ReplRandom
	// ReplRoundRobin cycles a per-set pointer over the ways, as the
	// PowerPC 440 data cache does (paper §IV.A.3).
	ReplRoundRobin
)

// String returns the policy name.
func (p ReplPolicy) String() string {
	switch p {
	case ReplLRU:
		return "LRU"
	case ReplFIFO:
		return "FIFO"
	case ReplRandom:
		return "random"
	case ReplRoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("ReplPolicy(%d)", int(p))
}

// ParseRepl parses a policy name (dinero single letters accepted).
func ParseRepl(s string) (ReplPolicy, error) {
	switch s {
	case "lru", "l", "LRU":
		return ReplLRU, nil
	case "fifo", "f", "FIFO":
		return ReplFIFO, nil
	case "random", "r":
		return ReplRandom, nil
	case "roundrobin", "rr", "round-robin":
		return ReplRoundRobin, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// WritePolicy selects how write hits propagate.
type WritePolicy int

// Write policies.
const (
	// WriteBack marks lines dirty and writes them out on eviction (-wb).
	WriteBack WritePolicy = iota
	// WriteThrough forwards every write to the next level (-wt).
	WriteThrough
)

// String returns the policy name.
func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// ParseWrite parses a write policy flag value: wb (write-back) or wt
// (write-through).
func ParseWrite(s string) (WritePolicy, error) {
	switch s {
	case "wb":
		return WriteBack, nil
	case "wt":
		return WriteThrough, nil
	}
	return 0, fmt.Errorf("bad write policy %q", s)
}

// AllocPolicy selects write-miss behaviour.
type AllocPolicy int

// Write-miss allocation policies.
const (
	// WriteAllocate fills the block on a write miss (-wa).
	WriteAllocate AllocPolicy = iota
	// NoWriteAllocate forwards the write without filling (-wn).
	NoWriteAllocate
)

// String returns the policy name.
func (p AllocPolicy) String() string {
	if p == NoWriteAllocate {
		return "no-write-allocate"
	}
	return "write-allocate"
}

// ParseAlloc parses a write-miss policy flag value: wa (allocate) or wn
// (no allocate).
func ParseAlloc(s string) (AllocPolicy, error) {
	switch s {
	case "wa":
		return WriteAllocate, nil
	case "wn":
		return NoWriteAllocate, nil
	}
	return 0, fmt.Errorf("bad alloc policy %q", s)
}

// PrefetchPolicy selects hardware prefetching, after DineroIV's options.
type PrefetchPolicy int

// Prefetch policies.
const (
	// PrefetchNone disables prefetching (DineroIV -pfn, the default).
	PrefetchNone PrefetchPolicy = iota
	// PrefetchMiss fetches the next sequential block on every demand miss
	// (-pfm).
	PrefetchMiss
	// PrefetchAlways fetches the next sequential block on every demand
	// access (-pfa).
	PrefetchAlways
)

// String returns the policy name.
func (p PrefetchPolicy) String() string {
	switch p {
	case PrefetchNone:
		return "none"
	case PrefetchMiss:
		return "miss-prefetch"
	case PrefetchAlways:
		return "always-prefetch"
	}
	return fmt.Sprintf("PrefetchPolicy(%d)", int(p))
}

// ParsePrefetch parses a prefetch policy name.
func ParsePrefetch(s string) (PrefetchPolicy, error) {
	switch s {
	case "none", "n", "":
		return PrefetchNone, nil
	case "miss", "m":
		return PrefetchMiss, nil
	case "always", "a":
		return PrefetchAlways, nil
	}
	return 0, fmt.Errorf("cache: unknown prefetch policy %q", s)
}

// Config describes one cache level.
type Config struct {
	// Name labels the level in reports (e.g. "l1-data").
	Name string
	// Size is the total capacity in bytes.
	Size int64
	// BlockSize is the line size in bytes (power of two).
	BlockSize int64
	// Assoc is the number of ways; 1 = direct mapped. 0 means fully
	// associative (one set).
	Assoc int
	// Repl is the replacement policy.
	Repl ReplPolicy
	// Write is the write-hit policy.
	Write WritePolicy
	// Alloc is the write-miss policy.
	Alloc AllocPolicy
	// Prefetch selects sequential prefetching.
	Prefetch PrefetchPolicy
	// Seed drives ReplRandom deterministically.
	Seed uint64
	// ClassifyMisses enables three-C classification (costs a shadow
	// fully-associative directory).
	ClassifyMisses bool
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	assoc := int64(c.Assoc)
	if assoc == 0 {
		return 1
	}
	return int(c.Size / (c.BlockSize * assoc))
}

// Validate checks geometric consistency.
func (c Config) Validate() error {
	if c.Size <= 0 || c.BlockSize <= 0 {
		return fmt.Errorf("cache: size and block size must be positive (got %d, %d)", c.Size, c.BlockSize)
	}
	if bits.OnesCount64(uint64(c.BlockSize)) != 1 {
		return fmt.Errorf("cache: block size %d is not a power of two", c.BlockSize)
	}
	if c.BlockSize > math.MaxInt32 {
		return fmt.Errorf("cache: block size %d exceeds %d bytes", c.BlockSize, math.MaxInt32)
	}
	if c.Assoc < 0 {
		return fmt.Errorf("cache: negative associativity %d", c.Assoc)
	}
	assoc := int64(c.Assoc)
	if assoc == 0 {
		assoc = c.Size / c.BlockSize
	}
	if c.Size%(c.BlockSize*assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block %d × assoc %d", c.Size, c.BlockSize, assoc)
	}
	sets := c.Size / (c.BlockSize * assoc)
	if bits.OnesCount64(uint64(sets)) != 1 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// PowerPC440 is the cache organisation of the paper's set-pinning example:
// 32 KB, 32-byte lines, 64 ways per set, round-robin eviction.
func PowerPC440() Config {
	return Config{
		Name:      "ppc440-l1d",
		Size:      32 * 1024,
		BlockSize: 32,
		Assoc:     64,
		Repl:      ReplRoundRobin,
	}
}

// Paper32KDirect is the 32 KB direct-mapped, 32-byte-block cache used for
// the paper's figures 3-8.
func Paper32KDirect() Config {
	return Config{
		Name:      "l1-data",
		Size:      32 * 1024,
		BlockSize: 32,
		Assoc:     1,
		Repl:      ReplLRU,
	}
}
