"""Slow reference forms of routines the package now computes in numpy or
precomputed form.  Each is the package's earlier code, kept verbatim apart
from its imports, so differential tests can require identical results."""
