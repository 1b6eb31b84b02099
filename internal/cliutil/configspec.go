package cliutil

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"tracedst/internal/cache"
)

// ParseConfigSpec applies a comma-separated list of key=value overrides to
// base and validates the result. It is the textual form of one -config
// flag: "size=8k,assoc=2,name=l1-8k" names a config that is the -l1 flags
// with an 8 KiB capacity and two ways. Keys: name, size, bsize, assoc,
// repl, write, alloc, pf, classify, seed.
func ParseConfigSpec(base cache.Config, spec string) (cache.Config, error) {
	cfg := base
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("config field %q: want key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "name":
			cfg.Name = val
		case "size":
			cfg.Size, err = ParseSize(val)
		case "bsize":
			cfg.BlockSize, err = ParseSize(val)
		case "assoc":
			cfg.Assoc, err = strconv.Atoi(val)
		case "repl":
			cfg.Repl, err = cache.ParseRepl(val)
		case "write":
			cfg.Write, err = cache.ParseWrite(val)
		case "alloc":
			cfg.Alloc, err = cache.ParseAlloc(val)
		case "pf":
			cfg.Prefetch, err = cache.ParsePrefetch(val)
		case "classify":
			cfg.ClassifyMisses, err = strconv.ParseBool(val)
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q (want name|size|bsize|assoc|repl|write|alloc|pf|classify|seed)", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("config field %q: %w", field, err)
		}
	}
	return cfg, cfg.Validate()
}

// LoadConfigSpecs reads a config-spec file ("-" means stdin): one
// ParseConfigSpec line per config, blank lines and #-comments skipped.
func LoadConfigSpecs(path string, base cache.Config) ([]cache.Config, error) {
	in, err := OpenTrace(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	var cfgs []cache.Config
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cfg, err := ParseConfigSpec(base, line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln+1, err)
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("%s: no configs", path)
	}
	return cfgs, nil
}

// Repeated is a repeatable string flag (e.g. several -config specs).
type Repeated []string

// String implements flag.Value.
func (r *Repeated) String() string { return strings.Join(*r, " ") }

// Set implements flag.Value.
func (r *Repeated) Set(s string) error {
	*r = append(*r, s)
	return nil
}
