//go:build go1.23

// iter.Pull needs go1.23. The constraint raises this file's language
// version to go1.23 while go.mod stays at go 1.22: the benchmark module
// under bench/ pins go 1.22 and builds this package from source, and a
// higher go line here would fail its build. Both go.mod files move to 1.23
// together, and this constraint goes with them.

package des

import "iter"

// start makes body the process's coroutine. The first p.next() runs body
// until it yields or returns; each later one resumes it from its last
// yield.
func (p *Proc) start(body iter.Seq[struct{}]) {
	p.next, _ = iter.Pull(body)
}
