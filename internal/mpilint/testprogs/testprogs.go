// Package testprogs holds small MPI programs used to cross-check the
// mpilint static analyzer against the dynamic leak checks of the mpi runtime
// (World.CommLeaks, World.RequestLeaks): each program is ordinary compiled
// source that mpilint can analyze AND a func(*mpi.Proc) error the verifier
// can run, so tests can require the two verdicts to agree.
//
// The intentional violations carry //mpilint:ignore comments to keep
// repo-wide lint runs clean; the cross-check test re-runs the analyzer with
// suppressions disabled to see them.
package testprogs
