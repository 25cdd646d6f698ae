package server

import (
	"fmt"
	"html"
	"net/http"

	"shareinsights/internal/vcs"
)

// handleEditor serves the browser development interface of Figure 26: a
// flow-file editor with save, run, explorer and dashboard panes, driven
// entirely by the REST API ("ShareInsights uses the browser exclusively
// for data-pipeline development", §4.3.1). Navigating to
// /dashboards/<name>/edit on a fresh name is the paper's /create flow.
func (s *Server) handleEditor(w http.ResponseWriter, r *http.Request, t target) {
	name, content := t.name, ""
	if t.repo != nil {
		if b, err := t.repo.Content(vcs.DefaultBranch); err == nil {
			content = string(b)
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, editorPage, html.EscapeString(name), html.EscapeString(name), html.EscapeString(content), html.EscapeString(name))
}

const editorPage = `<!DOCTYPE html><html><head><meta charset="utf-8">
<title>ShareInsights — %s</title>
<style>
body{font-family:sans-serif;margin:0;display:flex;flex-direction:column;height:100vh}
header{padding:8px;background:#234;color:#fff;display:flex;gap:8px;align-items:center}
header h1{font-size:16px;margin:0;flex:1}
main{flex:1;display:flex;min-height:0}
#src{flex:1;font-family:monospace;font-size:13px;border:none;padding:8px;resize:none}
#out{flex:1;overflow:auto;border-left:1px solid #ccc;padding:8px}
#status{font-size:12px}
button{padding:4px 12px}
pre{white-space:pre-wrap}
</style></head><body>
<header>
  <h1>ShareInsights — %s</h1>
  <span id="status"></span>
  <button onclick="save()">Save</button>
  <button onclick="run()">Save &amp; Run</button>
  <button onclick="explore()">Data Explorer</button>
  <button onclick="view()">Dashboard</button>
</header>
<main>
  <textarea id="src" spellcheck="false">%s</textarea>
  <div id="out"><p>Save &amp; Run to see endpoint data; the explorer and
  dashboard panes use the same REST endpoints (<code>/ds</code>,
  <code>/explore</code>, <code>/html</code>) scripts can call.</p></div>
</main>
<script>
const name = %q;
const status = (m) => document.getElementById('status').textContent = m;
const out = (html) => document.getElementById('out').innerHTML = html;
async function save() {
  const res = await fetch('/dashboards/' + name, {method: 'PUT', body: document.getElementById('src').value});
  const body = await res.json();
  status(res.ok ? 'saved ' + body.commit.slice(0, 10) : 'error');
  if (!res.ok) out('<pre>' + body.error + '</pre>');
  return res.ok;
}
async function run() {
  if (!await save()) return;
  const res = await fetch('/dashboards/' + name + '/run', {method: 'POST'});
  const body = await res.json();
  if (!res.ok) { status('run failed'); out('<pre>' + body.error + '</pre>'); return; }
  status('ran: ' + body.tasks_run + ' tasks');
  explore();
}
async function explore() {
  const res = await fetch('/dashboards/' + name + '/explore');
  out('<pre>' + (await res.text()) + '</pre>');
}
async function view() {
  const res = await fetch('/dashboards/' + name + '/html');
  out(await res.text());
}
</script>
</body></html>`
