// Package fixture exercises wire-kind dispatch coverage with a miniature
// dispatch switch.
package fixture

const (
	msgToken  = 1
	msgAck    = 2
	msgOrphan = 3 // want "wirekinds: wire kind msgOrphan is not a case in any dispatch switch"
)

func handle(kind int) {
	switch kind {
	case msgToken:
	case msgAck:
	}
}

// notDispatch cases over msgOrphan, but it is not a configured dispatch
// function and must not count as coverage.
func notDispatch(kind int) {
	switch kind {
	case msgOrphan:
	}
}
