//go:build !unix

package store

import (
	"errors"
	"os"
)

// A shared store's cross-process mutual exclusion is built on flock,
// which this platform does not provide; OpenShared fails cleanly rather
// than serving a store without its safety guarantees.
var errNoFlock = errors.New("store: shared store requires flock, unavailable on this platform")

func flockEx(*os.File) error { return errNoFlock }

func flockUn(*os.File) error { return errNoFlock }
