// Source-level annotation macros consumed by the project linter
// (tools/splice_lint.py). They expand to nothing: their entire meaning is
// the token the linter sees in the source text, so annotating costs zero
// codegen and works identically under gcc and clang.
//
// The invariants they mark are the ones the compiler cannot see:
//
//  * SPLICE_SHARD_CONFINED — placed on a data member that belongs to one
//    PDES shard's private window state (its simulator, op heap, inbox
//    buffers, journal ring). The window protocol's only synchronization is
//    the pair of barriers around each window; a confined member is safe to
//    touch exactly when the barrier discipline says so, and the linter's
//    SPL005 rule rejects any member access outside a function marked
//    SPLICE_SHARD_ENTRY (docs/STATIC_ANALYSIS.md#spl005). The member must
//    be private: SPL005 reads only the annotating file and its same-stem
//    source, and access control keeps every other file out.
//
//  * SPLICE_SHARD_ENTRY — placed on a function definition that is a
//    legitimate entry point into confined state: the worker loop itself,
//    the coordinator phase running while workers are parked, the posting
//    protocol (route/post_shard) whose parity buffers make the write safe,
//    and post-run accessors that execute after the team has joined.
//
// Adding a new access site without the annotation fails `ctest -L lint`,
// which is the point: the reviewer is forced to argue the barrier ordering
// for the new site, not discover a data race in TSan two PRs later.
#pragma once

#define SPLICE_SHARD_CONFINED /* splice_lint: member is shard-private */
#define SPLICE_SHARD_ENTRY /* splice_lint: vetted confined-state entry */
