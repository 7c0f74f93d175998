//! Structured error taxonomy of the MGG engine.
//!
//! The executor and CLI hot paths report failures through [`MggError`]
//! instead of panicking, so callers (the CLI, the bench harness, library
//! users) can distinguish a misconfiguration from a hardware-limit
//! violation from an unrecoverable failure and react accordingly.

use std::fmt;

use mgg_sim::LaunchError;

/// Any failure the MGG engine can report.
#[derive(Debug, Clone, PartialEq)]
pub enum MggError {
    /// The `(ps, dist, wpb)` configuration is outside the paper's bounds.
    InvalidConfig(String),
    /// A fault-injection spec is outside its documented domain.
    InvalidFaultSpec(String),
    /// The kernel launch violates a hardware limit of the target GPU.
    Launch(LaunchError),
    /// The installed failures exceed what elastic failover can absorb
    /// (e.g. no surviving GPU, or a corrupt checkpoint): the run cannot
    /// produce a correct answer and says so instead of hanging.
    Unrecoverable(String),
    /// A live-graph delta batch references nodes outside the graph (the
    /// whole batch is rejected; nothing was applied).
    InvalidDelta(String),
}

impl fmt::Display for MggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MggError::InvalidConfig(msg) => write!(f, "invalid MGG configuration: {msg}"),
            MggError::InvalidFaultSpec(msg) => write!(f, "invalid fault spec: {msg}"),
            MggError::Launch(e) => write!(f, "kernel launch rejected: {e}"),
            MggError::Unrecoverable(msg) => write!(f, "unrecoverable failure: {msg}"),
            MggError::InvalidDelta(msg) => write!(f, "invalid graph delta: {msg}"),
        }
    }
}

impl std::error::Error for MggError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MggError::Launch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LaunchError> for MggError {
    fn from(e: LaunchError) -> Self {
        MggError::Launch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MggError::InvalidConfig("ps out of range".into());
        assert!(e.to_string().contains("ps out of range"));
        let e: MggError = LaunchError::ZeroWarps.into();
        assert!(e.to_string().contains("launch rejected"));
        let e = MggError::Unrecoverable("all GPUs dead".into());
        assert!(e.to_string().contains("unrecoverable"));
        let e = MggError::InvalidDelta("node 99 out of range".into());
        assert!(e.to_string().contains("invalid graph delta"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e: MggError = LaunchError::ZeroWarps.into();
        assert!(e.source().is_some());
        assert!(MggError::InvalidConfig("x".into()).source().is_none());
    }
}
