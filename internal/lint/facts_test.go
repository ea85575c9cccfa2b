package lint

import (
	"strings"
	"testing"
)

// TestHotAllocChain pins the multi-hop chain rendering end to end on the
// golden fixture: the leaf allocation two call hops from the annotated root
// must name the whole path.
func TestHotAllocChain(t *testing.T) {
	m, err := Load("testdata/hotalloc")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings := Run(m, []*Analyzer{analyzerHotAlloc})
	const chain = "kernel.Hot -> mid.Step -> deep.Build"
	for _, f := range findings {
		if strings.Contains(f.Message, chain) {
			return
		}
	}
	t.Errorf("no finding carries the call chain %q; findings:\n%v", chain, findings)
}

// TestParseAnnotation covers the directive grammar corners the golden
// fixtures cannot host (a same-line //lintwant marker would become the
// directive's reason text).
func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		body          string
		kind          string
		wantMalformed string
		wantOK        bool
	}{
		{"hotpath keeps the kernel allocation-free", "hotpath", "", true},
		{"coldpath error path may allocate", "coldpath", "", true},
		{"ctxdetach job outlives the request", "ctxdetach", "unknown directive", true},
		{"lockheld the mutex exists to serialize this write", "lockheld", "", true},
		{"hotpath", "hotpath", "missing reason", true},
		{"lockheld", "lockheld", "missing reason", true},
		{"coldpath ", "coldpath", "missing reason", true},
		{"coldpath\t", "coldpath", "missing reason", true},
		{"hotpathz typo verb", "hotpathz", "unknown directive", true},
		{"ignore droppederr caller closes it", "", "", false},
		{"", "", "unknown directive", true},
	}
	for _, c := range cases {
		kind, reason, malformed, ok := parseAnnotation(c.body)
		if ok != c.wantOK {
			t.Errorf("parseAnnotation(%q): ok=%v, want %v", c.body, ok, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if kind != c.kind {
			t.Errorf("parseAnnotation(%q): kind=%q, want %q", c.body, kind, c.kind)
		}
		if c.wantMalformed == "" && malformed != "" {
			t.Errorf("parseAnnotation(%q): unexpected malformed %q", c.body, malformed)
		}
		if c.wantMalformed != "" {
			if !strings.Contains(malformed, c.wantMalformed) {
				t.Errorf("parseAnnotation(%q): malformed=%q, want substring %q", c.body, malformed, c.wantMalformed)
			}
			if reason != "" {
				t.Errorf("parseAnnotation(%q): malformed directive has reason %q", c.body, reason)
			}
		}
	}
}
