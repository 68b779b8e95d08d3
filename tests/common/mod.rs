//! What the integration tests that start `inet` processes share.

use std::ops::{Deref, DerefMut};
use std::process::Child;

/// A child process that is killed and reaped when dropped, so that a test
/// which fails before it stops the child leaves no process running.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        // Both are harmless on a child the test already reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for Reaped {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Reaped {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}
