// Package ignore exercises the //scglint:ignore machinery against
// droppederr findings: used directives (trailing, own-line, and own-line
// above a statement that wraps), an unused directive, and a malformed one
// with no reason.
package ignore

func mayFail() error { return nil }

// SuppressedTrailing carries the directive on the flagged line.
func SuppressedTrailing() {
	mayFail() //scglint:ignore droppederr fixture exercises trailing suppression
}

// SuppressedAbove carries the directive on the line above.
func SuppressedAbove() {
	//scglint:ignore droppederr fixture exercises own-line suppression
	mayFail()
}

// SuppressedMultiline anchors an own-line directive to a statement whose
// header wraps across several lines: the finding fires on the header's
// last line (the loop's post statement) and must still be suppressed (the
// directive covers the statement's whole header span, not just the line
// below it).
func SuppressedMultiline(steps []int) {
	//scglint:ignore droppederr fixture exercises statement-span anchoring
	for i := 0; i < len(
		steps,
	); mayFail() {
		i++
	}
}

// Unused carries a directive that suppresses nothing.
func Unused() error {
	//scglint:ignore droppederr nothing on the next line fires
	return mayFail()
}

// Missing carries a directive without a reason, which is malformed and does
// not suppress the finding it sits on.
func Missing() {
	mayFail() //scglint:ignore droppederr
}
