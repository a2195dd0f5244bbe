module slr

go 1.24

// No requirements, by design: slrlint (internal/analysis, cmd/slrlint)
// runs on the standard library, and CI's lint job fails if a dependency
// or a vendor/ tree appears.
