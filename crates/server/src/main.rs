//! The `carta-server` binary: bind from `CARTA_SERVER_*` environment
//! variables (see [`carta_server::ServerConfig`]) and serve until
//! stopped. SIGTERM/SIGINT start a graceful drain (finish or cancel
//! in-flight requests within `CARTA_SERVER_DRAIN_MS`) and the process
//! exits 0 — orchestrators see a clean stop, not a crash.

use carta_server::{request_shutdown, Server, ServerConfig};
use std::process::ExitCode;

#[cfg(unix)]
mod signals {
    use std::fs::File;
    use std::io::{self, Read};
    use std::net::SocketAddr;
    use std::os::fd::FromRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};

    /// `sighandler_t` is pointer-sized on every Unix Rust target; raw
    /// `signal(2)`, `pipe(2)` and `write(2)` bindings avoid a libc
    /// dependency.
    type SigHandler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Write end of the self-pipe, set before the handlers go in.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store and one
        // `write(2)`. The accept loop blocks in `accept`, so the
        // thread reading the pipe does the waking.
        carta_server::request_shutdown();
        let fd = WAKE_FD.load(Ordering::SeqCst);
        // SAFETY: one byte from a static buffer to a pipe that is never
        // closed.
        unsafe { write(fd, b"!".as_ptr(), 1) };
    }

    /// Creates the self-pipe, installs the SIGTERM/SIGINT handlers and
    /// returns the pipe's read end.
    pub fn install() -> io::Result<File> {
        let mut fds = [-1i32; 2];
        // SAFETY: `pipe` fills exactly the two-element array it is given.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        WAKE_FD.store(fds[1], Ordering::SeqCst);
        // SAFETY: `on_signal` is a plain extern "C" fn that does only
        // async-signal-safe work; `fds[0]` is a fresh descriptor that
        // nothing else owns.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
            Ok(File::from_raw_fd(fds[0]))
        }
    }

    /// Spawns the thread that turns every byte on the self-pipe into a
    /// [`carta_server::wake`] of the server at `addr`. A signal that
    /// arrived before this point left its byte in the pipe, so it is
    /// not lost.
    pub fn wake_on_signal(mut pipe: File, addr: SocketAddr) -> io::Result<()> {
        std::thread::Builder::new()
            .name("carta-server-signals".into())
            .spawn(move || {
                let mut byte = [0u8; 1];
                loop {
                    match pipe.read(&mut byte) {
                        Ok(0) => return,
                        Ok(_) => carta_server::wake(addr),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return,
                    }
                }
            })
            .map(drop)
    }
}

fn main() -> ExitCode {
    #[cfg(unix)]
    let signal_pipe = match signals::install() {
        Ok(pipe) => pipe,
        Err(e) => {
            eprintln!("error: cannot install signal handlers: {e}");
            return ExitCode::from(71);
        }
    };
    let config = ServerConfig::from_env();
    let server = match Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::from(66);
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: bound address unavailable: {e}");
            return ExitCode::from(71);
        }
    };
    #[cfg(unix)]
    if let Err(e) = signals::wake_on_signal(signal_pipe, addr) {
        eprintln!("error: cannot spawn the signal thread: {e}");
        return ExitCode::from(71);
    }
    eprintln!(
        "carta-server listening on http://{addr} \
         (POST /v1/requests, POST /v1/tenants/<t>/sessions, GET /v1/metrics)"
    );
    match server.run() {
        Ok(()) => {
            eprintln!("carta-server drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: accept loop failed: {e}");
            // Belt and braces: make sure a second signal still stops
            // any sibling server in-process.
            request_shutdown();
            ExitCode::from(70)
        }
    }
}
