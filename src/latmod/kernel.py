"""The polynomial kernel: re-exports of the pure-Python implementation."""

from ._pykernel import (  # noqa: F401
    KERNEL_KIND,
    buchberger,
    interreduce,
    nf,
    normalize_int,
    normalize_mod,
    spoly,
    usable_cpus,
)
