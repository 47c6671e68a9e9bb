//! The encode/solve split: encoding artifacts and warm-start route
//! sessions.
//!
//! Routing a request monolithically has two separable halves: building the
//! circuit→WCNF encoding (pure — a function of the canonicalized circuit,
//! the device graph, and the resolved knobs) and searching it. This module
//! reifies the first half as an [`EncodedArtifact`], stamped with the
//! request's canonical [`circuit::RouteRequest::fingerprint`], so a caller
//! can time or count the encode apart from the search, or solve one
//! encoding more than once.
//!
//! A [`RouteSession`] goes further: alongside the artifact it keeps the
//! MaxSAT engine's [`maxsat::MaxSatSession`] — the solver with its loaded
//! clause arena (learned clauses included), the incumbent model, and the
//! strategy's bound progress. The routing supervisor holds one for the
//! attempts of a single request's retry ladder: a retry under a bigger
//! budget warm starts from all of it. The prior incumbent seeds the search
//! through the solver's saved phases, the prior bound becomes the first
//! assumption, and every carried learned clause prunes the new search.
//! Reuse is sound because all bounds travel as assumptions, never asserted
//! clauses, so the carried clause database is a conservative extension of
//! the instance (see [`maxsat::MaxSatSession`] for the full argument).

use std::time::Duration;

use maxsat::{MaxSatSession, WcnfInstance};
use sat::SatBackend;

use crate::encode::QmrEncoding;

/// A reusable circuit→WCNF encoding: the monolithic [`QmrEncoding`] of one
/// routing request, stamped with the request's canonical fingerprint.
/// Built by [`crate::SatMap::encode_request`]; solved (any number of
/// times) by [`crate::SatMap::solve_artifact`].
#[derive(Debug)]
pub struct EncodedArtifact {
    pub(crate) enc: QmrEncoding,
    pub(crate) fingerprint: u64,
    pub(crate) encode_time: Duration,
}

impl EncodedArtifact {
    /// The canonical fingerprint of the request this artifact encodes
    /// ([`circuit::RouteRequest::fingerprint`]): equal fingerprints mean
    /// an identical WCNF instance, which is what makes artifact reuse and
    /// warm-starting sound.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The encoded MaxSAT instance.
    pub fn instance(&self) -> &WcnfInstance {
        self.enc.instance()
    }

    /// How long the encoding took to build — the time an artifact-level
    /// cache hit saves.
    pub fn encode_time(&self) -> Duration {
        self.encode_time
    }

    pub(crate) fn encoding(&self) -> &QmrEncoding {
        &self.enc
    }
}

/// Warm-start state for repeated routing of one request: the encoding
/// artifact plus the MaxSAT engine's session (clause arena, incumbent,
/// bound progress) left by the last solve. Threaded through
/// [`crate::SatMap::route_with_session`]; a `None` slot means cold start.
pub struct RouteSession<B: SatBackend> {
    pub(crate) artifact: EncodedArtifact,
    pub(crate) session: Option<MaxSatSession<B>>,
}

impl<B: SatBackend> RouteSession<B> {
    /// The fingerprint of the request this session serves; a request with
    /// a different fingerprint re-encodes from scratch.
    pub fn fingerprint(&self) -> u64 {
        self.artifact.fingerprint
    }

    /// The cached encoding.
    pub fn artifact(&self) -> &EncodedArtifact {
        &self.artifact
    }

    /// Clauses the next solve of this session will carry instead of
    /// re-emitting (0 when no solver state is held yet).
    pub fn reusable_clauses(&self) -> usize {
        self.session.as_ref().map_or(0, |s| s.reusable_clauses())
    }
}
