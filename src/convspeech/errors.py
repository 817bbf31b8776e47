"""Exception types shared across the toolkit."""


class ConvSpeechError(Exception):
    """Base class for all toolkit errors."""


class EmptySignalError(ConvSpeechError):
    """Raised when an operation receives an empty waveform."""


class InsufficientInputError(ConvSpeechError):
    """Input too short for the requested analysis window."""


class DomainError(ConvSpeechError):
    """Value outside the mathematical domain of an operation."""


class DimensionError(ConvSpeechError):
    """Array shapes incompatible with the declared layer/graph geometry."""


class ConfigurationError(ConvSpeechError):
    """Structurally invalid configuration (odd GLU channels, empty grid, ...)."""


class VocabularyError(ConvSpeechError):
    """Token or letter not present in the alphabet/vocabulary."""


class InfeasibleAlignmentError(ConvSpeechError):
    """The target cannot be aligned onto the available frames."""


class DegenerateFilterError(ConvSpeechError):
    """Filter kernel has no energy, so no center frequency exists."""


class ArpaParseError(ConvSpeechError):
    """Malformed ARPA input. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class TrainingDivergenceError(ConvSpeechError):
    """Non-finite loss or gradients during optimization."""


class EmptyBeamError(ConvSpeechError):
    """Beam search ran out of hypotheses. Carries the frame index."""

    def __init__(self, frame: int, message: str = ""):
        self.frame = frame
        super().__init__(message or f"no surviving hypothesis at frame {frame}")


class AudioFormatError(ConvSpeechError):
    """WAV header malformed or encoding unsupported."""
