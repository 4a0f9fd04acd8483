package core

import "semilocal/internal/dominance"

// Index exposes the kernel's dominance tree (nil until built) so tests
// can tell one build from a rebuild.
func Index(k *Kernel) *dominance.Tree { return k.dom.Load() }
