"""End-to-end benchmark of the linkage stack, measured from outside.

Four workloads (``train_adapt``, ``batch_link``, ``serve_ingest``,
``serve_query``) drive only public functions of ``repro``; per-layer numbers
come from wrappers this package installs at run time.  See ``README.md``.
"""
