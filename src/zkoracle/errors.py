"""Exception types shared across the package."""


class OracleError(Exception):
    """Base class for every protocol-level error."""


class InvalidInput(OracleError):
    pass


class InvalidKey(OracleError):
    pass


class InvalidPoint(OracleError):
    pass


class IndexOutOfRange(OracleError):
    pass


class IndexMismatch(OracleError):
    pass


class InvalidProof(OracleError):
    pass


class InsufficientStake(OracleError):
    pass


class CommitteeFull(OracleError):
    pass


class StakeTooLow(OracleError):
    pass


class NotOwner(OracleError):
    pass


class AlreadyExiting(OracleError):
    pass


class NotExiting(OracleError):
    pass


class ExitTimeNotReached(OracleError):
    pass


class FeeTooLow(OracleError):
    pass


class NoCommittee(OracleError):
    pass


class NotAggregator(OracleError):
    pass


class RequestNotPending(OracleError):
    pass


class RequestPending(OracleError):
    pass


class AlreadySlashed(OracleError):
    pass


class CorruptLog(OracleError):
    pass


class WrongVoteCount(OracleError):
    pass


class MixedVotes(OracleError):
    pass


class NotSlashable(OracleError):
    pass


class UnknownBackend(OracleError):
    pass


class ConfigError(OracleError):
    pass
