//go:build !simcheck

package machine

import (
	"zen2ee/internal/rapl"
	"zen2ee/internal/soc"
)

// verifyRefresh is compiled out unless built with -tags simcheck, which
// turns every refresh into a full recompute cross-checked against the
// incrementally maintained caches.
func (m *Machine) verifyRefresh(rapl.Config) {}

// verifyPackageActivity and verifyCoreActive are compiled out unless built
// with -tags simcheck, which cross-checks every SMU read of the refresh
// caches against a direct derivation.
func (m *Machine) verifyPackageActivity(soc.PackageID) {}
func (m *Machine) verifyCoreActive(soc.CoreID)         {}
