package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// factVersion invalidates every cached summary when the facts schema or
// the summarize walk changes. Bump it whenever either does.
const factVersion = 2

// FactCache is the content-addressed on-disk store for package
// summaries. A package's cache key folds in the facts schema version,
// its own source bytes, and — recursively — the keys of every module
// package it imports, so a summary is reused only when nothing in the
// package's compilation closure changed. Every failure mode (unreadable
// dir, corrupt entry, permission error) degrades to a cache miss: the
// cache can make campslint faster, never wrong.
type FactCache struct {
	dir string
}

// OpenFactCache returns a cache rooted at dir, creating it if needed.
// An empty dir (or an uncreatable one) yields a disabled cache whose
// every lookup misses.
func OpenFactCache(dir string) *FactCache {
	if dir == "" {
		return &FactCache{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return &FactCache{}
	}
	return &FactCache{dir: dir}
}

// DefaultFactCacheDir is where campslint caches summaries unless
// overridden: <user cache dir>/campslint ("" when no cache dir exists,
// disabling the cache).
func DefaultFactCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "campslint")
}

// Enabled reports whether the cache is backed by a directory.
func (c *FactCache) Enabled() bool { return c.dir != "" }

// Load returns the summary cached under key, or nil on any miss.
func (c *FactCache) Load(key string) *PackageSummary {
	if c.dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil
	}
	var s PackageSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil
	}
	return &s
}

// Store writes a summary under key (atomically: temp file + rename, so
// a concurrent reader never sees a torn entry). Errors are returned for
// tests but callers may ignore them — a failed store is a future miss.
func (c *FactCache) Store(key string, s *PackageSummary) error {
	if c.dir == "" {
		return nil
	}
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(c.dir, key+".json"))
}

// summaryKeys computes the content-addressed cache key of every package
// in the program. Keys are built in dependency order so each package
// can fold in the keys of its module imports: a change anywhere in a
// package's closure changes its key.
func summaryKeys(prog *Program) map[string]string {
	keys := make(map[string]string, len(prog.Pkgs))
	for _, pkg := range prog.Pkgs {
		h := sha256.New()
		fmt.Fprintf(h, "campslint-facts:%d\n", factVersion)
		fmt.Fprintf(h, "pkg:%s\nsrc:%s\n", pkg.Path, pkg.SrcHash)
		var deps []string
		for _, imp := range pkg.Types.Imports() {
			if dk, ok := keys[imp.Path()]; ok {
				deps = append(deps, imp.Path()+"="+dk)
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			fmt.Fprintf(h, "dep:%s\n", d)
		}
		keys[pkg.Path] = hex.EncodeToString(h.Sum(nil))
	}
	return keys
}

// SummarySet holds the facts of every package in a program, plus how
// many were served from the cache (for -timing output and tests).
type SummarySet struct {
	ByPkg  map[string]*PackageSummary
	Hits   int
	Misses int

	funcs map[string]*FuncSummary // symbol index over every package
}

// Summarize computes (or loads) the summary of every package in the
// program. cache may be nil or disabled.
func Summarize(prog *Program, cache *FactCache) *SummarySet {
	if cache == nil {
		cache = &FactCache{}
	}
	keys := summaryKeys(prog)
	set := &SummarySet{ByPkg: make(map[string]*PackageSummary, len(prog.Pkgs))}
	for _, pkg := range prog.Pkgs {
		key := keys[pkg.Path]
		if s := cache.Load(key); s != nil && s.Package == pkg.Path {
			set.ByPkg[pkg.Path] = s
			set.Hits++
			continue
		}
		s := summarize(pkg)
		set.ByPkg[pkg.Path] = s
		set.Misses++
		cache.Store(key, s) //nolint:errcheck // a failed store is a future miss
	}
	set.funcs = make(map[string]*FuncSummary)
	for _, ps := range set.ByPkg {
		for i := range ps.Funcs {
			set.funcs[ps.Funcs[i].Sym] = &ps.Funcs[i]
		}
	}
	return set
}

// Func returns the summary of one function symbol, or nil.
func (s *SummarySet) Func(sym string) *FuncSummary {
	return s.funcs[sym]
}
