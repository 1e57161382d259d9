"""The worker count stamped into benchmark runs."""


def get_default_jobs() -> int:
    """Worker processes per discovery run, stamped into benchmark runs.

    Always ``1``: every algorithm, ranking and sampling pass runs
    serially in the calling process.
    """
    return 1
