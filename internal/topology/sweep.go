package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Instance names one enumerable (family, l, n) triple without
// materializing it. Sweep drivers — netprops -sweep, scgctl warm — share
// this enumeration so "every instance of MS up to k=9" means the same
// set of networks everywhere.
type Instance struct {
	Family Family
	L, N   int
}

// K returns the node-label length of the instance.
func (in Instance) K() int {
	if in.Family.IsSuperCayley() {
		return in.N*in.L + 1
	}
	return in.N + 1
}

func (in Instance) String() string { return string(in.AppendName(nil)) }

// AppendName appends in's String form, family(l,n), without allocating.
func (in Instance) AppendName(b []byte) []byte {
	b = append(b, in.Family.String()...)
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(in.L), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(in.N), 10)
	return append(b, ')')
}

// EnumerateInstances lists every constructible instance of fam with
// k <= maxK in deterministic (k, l) order: all (l, n) splits with l ≥ 2
// and l | k-1 for super Cayley families, all dimensions for nucleus-only
// ones (canonical l = 1).
func EnumerateInstances(fam Family, maxK int) ([]Instance, error) {
	if maxK < 3 {
		return nil, fmt.Errorf("topology: sweep needs maxK >= 3, got %d", maxK)
	}
	var out []Instance
	if fam.IsSuperCayley() {
		for k := 3; k <= maxK; k++ {
			for l := 2; l <= k-1; l++ {
				if (k-1)%l != 0 {
					continue
				}
				out = append(out, Instance{Family: fam, L: l, N: (k - 1) / l})
			}
		}
	} else {
		for k := 3; k <= maxK; k++ {
			out = append(out, Instance{Family: fam, L: 1, N: k - 1})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topology: no enumerable %v instances with k <= %d", fam, maxK)
	}
	return out, nil
}

// ParseSweepSpec parses one "family:maxK" sweep specification (e.g.
// "MS:8", "star:9") into the instance list EnumerateInstances defines.
// Family names are the ParseFamily vocabulary.
func ParseSweepSpec(spec string) ([]Instance, error) {
	name, kStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topology: sweep spec %q: want family:maxK (e.g. MS:8)", spec)
	}
	fam, err := ParseFamily(strings.TrimSpace(name))
	if err != nil {
		return nil, fmt.Errorf("topology: sweep spec %q: unknown family %q", spec, name)
	}
	maxK, err := strconv.Atoi(strings.TrimSpace(kStr))
	if err != nil {
		return nil, fmt.Errorf("topology: sweep spec %q: bad maxK %q", spec, kStr)
	}
	return EnumerateInstances(fam, maxK)
}

// ParseSweepSpecs parses a comma-separated list of sweep specifications
// and concatenates their instance lists, de-duplicating repeats while
// preserving first-appearance order.
func ParseSweepSpecs(specs string) ([]Instance, error) {
	var out []Instance
	seen := make(map[Instance]bool)
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		ins, err := ParseSweepSpec(spec)
		if err != nil {
			return nil, err
		}
		for _, in := range ins {
			if !seen[in] {
				seen[in] = true
				out = append(out, in)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topology: empty sweep spec %q", specs)
	}
	return out, nil
}
