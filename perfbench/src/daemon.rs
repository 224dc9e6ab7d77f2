//! Starting and stopping the `car serve` / `car shard` daemons, and the
//! benchmark's HTTP connections to them.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use car_serve::client::{Client, ClientResponse};
use car_serve::json::Json;

/// How long a daemon may take to bind its port.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket timeout of every benchmark request; a reply slower than this
/// is a failed operation.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One running daemon process.
pub struct Daemon {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `car <args>` and waits for its "listening on http://ADDR"
    /// line. Standard error goes to `log`.
    pub fn start(car: &Path, args: &[String], log: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(car)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdout =
            child.stdout.take().ok_or_else(|| io::Error::other("no stdout pipe"))?;
        let (tx, rx) = mpsc::channel::<String>();
        // Keeps reading standard output until the daemon exits, so it
        // never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let deadline = Instant::now() + BOOT_TIMEOUT;
        let mut daemon = Daemon { child, addr: String::new(), drain: Some(drain) };
        while daemon.addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some((_, addr)) = line.split_once("listening on http://") {
                        daemon.addr = addr.trim().to_string();
                    }
                }
                Err(_) => {
                    return Err(io::Error::other(format!(
                        "`car {}` did not report a listening address",
                        args.first().map_or("", String::as_str)
                    )))
                }
            }
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and stop, then waits for it; kills it if
    /// it has not exited within ten seconds.
    pub fn stop(mut self) {
        if let Ok(mut c) =
            Client::connect_with_timeout(&self.addr, Duration::from_secs(5))
        {
            let _ = c.request("POST", "/v1/shutdown", None);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A keep-alive client connection that reconnects after a transport
/// failure and counts every connect.
pub struct Conn {
    addr: String,
    client: Option<Client>,
    connects: u64,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn { addr: addr.to_string(), client: None, connects: 0 }
    }

    /// Connects beyond the first one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Sends one request; no retries, so a transport error is a failed
    /// operation and the next request opens a new connection.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with_timeout(&self.addr, IO_TIMEOUT)?);
            self.connects += 1;
        }
        let client =
            self.client.as_mut().ok_or_else(|| io::Error::other("no connection"))?;
        match client.request(method, target, body) {
            Ok(resp) => {
                if resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.client = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.client = None;
                Err(e)
            }
        }
    }

    /// `GET target`, succeeding only on a 200 whose body is returned.
    pub fn get_ok(&mut self, target: &str) -> Result<ClientResponse, String> {
        let resp = self
            .request("GET", target, None)
            .map_err(|e| format!("GET {target}: {e}"))?;
        if resp.status == 200 {
            Ok(resp)
        } else {
            Err(format!("GET {target}: status {} {}", resp.status, resp.body_text()))
        }
    }

    /// `POST target` with `body`, succeeding only on `want`.
    pub fn post_ok(
        &mut self,
        target: &str,
        body: &[u8],
        want: u16,
    ) -> Result<ClientResponse, String> {
        let resp = self
            .request("POST", target, Some(body))
            .map_err(|e| format!("POST {target}: {e}"))?;
        if resp.status == want {
            Ok(resp)
        } else {
            Err(format!("POST {target}: status {} {}", resp.status, resp.body_text()))
        }
    }

    /// `GET target` parsed as JSON.
    pub fn get_json(&mut self, target: &str) -> Result<Json, String> {
        let resp = self.get_ok(target)?;
        Json::parse(&resp.body_text()).map_err(|e| format!("GET {target}: {e}"))
    }
}

/// The value of one sample line `name value` in a Prometheus text
/// exposition, or 0 when absent.
pub fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// The value of `X-Car-Epoch`: units pushed when the body was rendered.
pub fn epoch_of(resp: &ClientResponse) -> Option<u64> {
    resp.header("x-car-epoch")?.trim().parse().ok()
}

/// The `"rules":[...]` array of a rules body, as sent: the last member
/// of both the worker's and the router's object.
pub fn rules_array(body: &[u8]) -> &[u8] {
    let key = b"\"rules\":";
    body.windows(key.len())
        .position(|w| w == key)
        .and_then(|at| body.get(at + key.len()..body.len().saturating_sub(1)))
        .unwrap_or(&[])
}
