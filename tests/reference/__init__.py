"""Code only the tests run.  Most of it is the slow reference form of a
routine the package now computes in numpy or precomputed form: the
package's earlier code, kept verbatim apart from its imports, so
differential tests can require identical results.  The rest (`linegraph`,
and the interval and demand queries in `demand`) was moved here from the
package because no kernel runs it."""
