package gen

import (
	"bytes"
	"fmt"
)

// Apache project activity — the §3 use case's raw data: "bug tickets,
// project commit history, stack overflow traffic and project
// collaborators information".

// Project is one Apache project in the synthetic corpus.
type Project struct {
	// Name is the project name.
	Name string
	// Technology is the category used for the bubble legend.
	Technology string
	// activity weights overall volume.
	activity float64
}

// ApacheProjects is the project roster, spanning the technology
// categories the Apache dashboard's legend groups by.
var ApacheProjects = []Project{
	{Name: "pig", Technology: "data processing", activity: 0.9},
	{Name: "hive", Technology: "data processing", activity: 1.0},
	{Name: "spark", Technology: "data processing", activity: 1.4},
	{Name: "hadoop", Technology: "data processing", activity: 1.2},
	{Name: "flink", Technology: "data processing", activity: 0.7},
	{Name: "cassandra", Technology: "database", activity: 1.0},
	{Name: "hbase", Technology: "database", activity: 0.9},
	{Name: "couchdb", Technology: "database", activity: 0.5},
	{Name: "derby", Technology: "database", activity: 0.3},
	{Name: "kafka", Technology: "messaging", activity: 1.1},
	{Name: "activemq", Technology: "messaging", activity: 0.6},
	{Name: "camel", Technology: "integration", activity: 0.8},
	{Name: "tomcat", Technology: "web", activity: 0.9},
	{Name: "httpd", Technology: "web", activity: 0.8},
	{Name: "struts", Technology: "web", activity: 0.4},
	{Name: "lucene", Technology: "search", activity: 1.0},
	{Name: "solr", Technology: "search", activity: 0.9},
	{Name: "mahout", Technology: "machine learning", activity: 0.5},
	{Name: "zookeeper", Technology: "coordination", activity: 0.7},
	{Name: "thrift", Technology: "rpc", activity: 0.5},
}

// ApacheOptions parameterize the generator.
type ApacheOptions struct {
	// Seed drives all randomness.
	Seed int64
	// Years covered, defaults 2010..2014.
	FirstYear, LastYear int
}

func (o *ApacheOptions) defaults() {
	if o.FirstYear == 0 {
		o.FirstYear = 2010
	}
	if o.LastYear == 0 {
		o.LastYear = 2014
	}
}

// SvnJiraSummaryCSV renders per-project-per-year activity: project,
// year, noOfBugs, noOfCheckins, noOfEmailsTotal, noOfContributors,
// noOfReleases.
func SvnJiraSummaryCSV(opts ApacheOptions) []byte {
	opts.defaults()
	rng := Rand(opts.Seed)
	var buf bytes.Buffer
	for _, p := range ApacheProjects {
		growth := 1.0
		for year := opts.FirstYear; year <= opts.LastYear; year++ {
			base := p.activity * growth
			checkins := int(base*800) + rng.Intn(200)
			bugs := int(base*300) + rng.Intn(80)
			emails := int(base*2500) + rng.Intn(500)
			contributors := int(base*40) + rng.Intn(10) + 2
			releases := rng.Intn(4) + 1
			fmt.Fprintf(&buf, "%s,%d,%d,%d,%d,%d,%d\n",
				p.Name, year, bugs, checkins, emails, contributors, releases)
			// Projects trend up or down over the years.
			growth *= 0.85 + rng.Float64()*0.4
		}
	}
	return buf.Bytes()
}

// ProjectMetaCSV renders project reference data: project, technology.
func ProjectMetaCSV() []byte {
	var buf bytes.Buffer
	for _, p := range ApacheProjects {
		fmt.Fprintf(&buf, "%s,%q\n", p.Name, p.Technology)
	}
	return buf.Bytes()
}

// ---------------------------------------------------------------------
// Service-desk tickets (Figure 33's domain and the user-defined
// prediction task of observation 2)

var ticketSummaries = []struct {
	text   string
	days   int
	weight float64
}{
	{"URGENT production outage in billing", 1, 0.05},
	{"password reset request", 1, 0.25},
	{"slow response times on the reporting portal", 5, 0.15},
	{"new laptop provisioning", 7, 0.2},
	{"access request for data warehouse", 3, 0.15},
	{"email delivery failures to external domain", 2, 0.1},
	{"license renewal for design software", 10, 0.1},
}

// TicketsCSV renders service-desk tickets: ticket_id, created, severity,
// category, summary, resolved_days.
func TicketsCSV(seed int64, n int) []byte {
	rng := Rand(seed)
	categories := []string{"infrastructure", "access", "hardware", "software"}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		day := rng.Intn(90)
		created := fmt.Sprintf("2014-%02d-%02d", 1+day/30, 1+day%28)
		x := rng.Float64()
		var s = ticketSummaries[len(ticketSummaries)-1]
		for _, cand := range ticketSummaries {
			x -= cand.weight
			if x <= 0 {
				s = cand
				break
			}
		}
		severity := rng.Intn(4) + 1
		resolved := s.days + rng.Intn(3)
		fmt.Fprintf(&buf, "%d,%s,%d,%s,%q,%d\n",
			10000+i, created, severity, categories[rng.Intn(len(categories))], s.text, resolved)
	}
	return buf.Bytes()
}
