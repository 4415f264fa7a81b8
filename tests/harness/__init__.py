"""Reusable test helpers: fault injection for the concurrency suite
(:mod:`harness.chaos`), the plain NCHW training kernels that ``repro.nn`` is
checked against (:mod:`harness.reference_nn`) and the fused engine's LUT
conversion of integer bit-line values (:mod:`harness.adc_lut`)."""
