"""coinbuzz: social-media chatter volume vs. cryptocurrency market metrics.

Ingests tweet captures and IRC channel logs, normalizes them into a shared
message record, aggregates daily message counts per stream, flags likely
collection outages, and correlates the counts against Bitcoin price and
USD-exchange trading volume.
"""

__version__ = "0.1.0"

# The keywords a tweet must match when none are given. Defined here, not in
# `twitter`, so that the CLI can show it without importing that stage.
DEFAULT_KEYWORDS = ("bitcoin",)

__all__ = ["DEFAULT_KEYWORDS", "__version__"]
