"""Order-preserving encryption toolkit: a randomised approximate-common-
divisor scheme, recursive-bisection order-preserving functions with Uniform
and Beta midpoint samplers, distribution flattening, and the security /
benchmark harness around them.

The package re-exports nothing: import names from their modules
(acdope.gacd, acdope.opf, acdope.prng, ...), so that importing one module
loads only what it needs."""
