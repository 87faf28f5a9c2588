"""gs_analyze: cross-file static analysis engine for the GreenSprint repo.

A proper C++ lexer (comments, string/char/raw-string literals, preprocessor
awareness) feeds a project-wide model (classes, functions, constants) over
which both the legacy line-local gs-lint rules and four cross-file passes
run:

  ckpt-schema-lock      every begin_section site's serialized field list is
                        snapshotted in tools/ckpt_schema.lock; changing a
                        field list without bumping its schema version fails.
  fingerprint-coverage  every field of the scenario/correlation/config
                        structs must be mixed into scenario_fingerprint or
                        carry an explicit exemption comment.
  lock-order            the static gs::Mutex acquisition graph must be
                        acyclic, and lock-taking methods must be annotated.
  rng-stream-ownership  each named gs::Rng stream tag is drawn by exactly
                        one file.

Entry point: tools/gs_analyze (CLI).
"""

__all__ = [
    "cli",
    "engine",
    "lexer",
    "model",
    "findings",
]
