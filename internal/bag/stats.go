package bag

import (
	"fmt"
	"strings"

	"repro/internal/perm"
)

// FormatBoxes renders a configuration the way the paper's figures draw it:
// the outside ball followed by the boxes, e.g. "5 [34][26][71]" for
// 5342671 with l = 3, n = 2.
func FormatBoxes(ly Layout, u perm.Perm) string {
	if len(u) != ly.K() {
		return u.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d ", u[0])
	for j := 1; j <= ly.L; j++ {
		b.WriteByte('[')
		for o := 1; o <= ly.N; o++ {
			v := u[ly.BoxStart(j)-1+o-1]
			if ly.K() <= 9 {
				fmt.Fprintf(&b, "%d", v)
			} else {
				if o > 1 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d", v)
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}
