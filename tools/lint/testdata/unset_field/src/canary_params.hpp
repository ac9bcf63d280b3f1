// GL040 canary: a settings struct with a member no file assigns, which the
// unset-field pass MUST flag.
//
// CI runs `geoanon_lint --rules=unset-field
// --root=tools/lint/testdata/unset_field src` and asserts exit code 1. GL040
// only reports structs under "src/", so under the repo root this file's path
// (tools/lint/testdata/unset_field/...) keeps it inert in default scans;
// scoping --root to this directory makes the path "src/canary_params.hpp"
// and the unset member visible. The real src/ tree has no unset member, so
// this canary is what proves the pass can still fail.

#pragma once

struct CanaryParams {
    int canary_assigned{1};        // set by configure_canary below: clean
    int canary_never_assigned{2};  // assigned nowhere: the one finding
};

inline void configure_canary(CanaryParams& p) { p.canary_assigned = 3; }
