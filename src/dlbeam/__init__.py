"""dlbeam: a parallel beam-search learner for description-logic class expressions.

Learns class expressions that separate positive from negative examples over
a materialized knowledge base, using hash-deduplicated beam search and a
boolean-array evaluation engine. An optional master/worker mode spreads the
search over networked machines.
"""

__version__ = "0.1.0"
